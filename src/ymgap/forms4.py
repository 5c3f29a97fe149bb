"""Algebra of 2-forms on oriented Euclidean R^4.

Conventions shared by the whole package:

* a 2-form is stored as its 6 independent components in the fixed index
  order ``(12, 13, 14, 23, 24, 34)`` (component axis last for scalar
  forms);
* the inner product is ``<a, b> = 2 * sum_{i<j} a_ij b_ij``, so the basis
  form dx^12 has squared norm 2;
* the orientation is dx^1 ^ dx^2 ^ dx^3 ^ dx^4, under which
  dx^12 + dx^34, dx^13 - dx^24 and dx^14 + dx^23 span the self-dual space.

An operator on the self-dual space ("Weyl-plus operator") is a symmetric
trace-free 3x3 matrix acting on coefficients in the orthonormal self-dual
basis.  With the Frobenius norm on that matrix, the sharp bound on the
induced quadratic form is 2/sqrt(6) (the extremal ratio for trace-free
symmetric 3x3 matrices); this endomorphism normalization is used
everywhere, see README.
"""

from __future__ import annotations

import numpy as np

#: ordered index pairs of the six components (0-based)
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}

#: PAIRS as two index arrays, for gathering the six components at once
PAIR_I, PAIR_J = np.array(PAIRS).T

#: Hodge star in the six-component representation: 12<->34, 13<->-24, 14<->23
STAR = np.zeros((6, 6))
STAR[0, 5] = STAR[5, 0] = 1.0
STAR[1, 4] = STAR[4, 1] = -1.0
STAR[2, 3] = STAR[3, 2] = 1.0
STAR.setflags(write=False)

WEYL_BOUND = 2.0 / np.sqrt(6.0)


def inner_2form(a, b):
    """<a, b> = 2 sum_{i<j} a_ij b_ij; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 2.0 * np.sum(a * b, axis=-1)


def sd_basis():
    """Standard orthonormal basis of the self-dual space, rows e1, e2, e3.

    e1 = (dx^12 + dx^34)/2, e2 = (dx^13 - dx^24)/2, e3 = (dx^14 + dx^23)/2.
    """
    return np.array([
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.0, -0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
    ])


def random_sd_basis(rng, size=()):
    """Random orthonormal bases (rows) of the self-dual space, size + (3, 6).

    Any orthonormal triple is an orthogonal mix of the standard one, so a
    Haar-ish random O(3) factor applied to sd_basis() covers them all.
    """
    q, r = np.linalg.qr(rng.standard_normal(tuple(size) + (3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q @ sd_basis()


def _circ_terms():
    """Index and sign arrays of the 24 nonzero structure constants of circ.

    Output component c = (i, j) receives s * a[l] * b[r] from the two k
    outside {i, j}: +a_ik b_jk and -a_jk b_ik, with the signs of the
    stored i < j components folded into s. Each row of the returned
    (6, 4) arrays lists the four terms of one output component.
    """
    def comp(i, k):
        return (PAIR_INDEX[(i, k)], 1.0) if i < k else (PAIR_INDEX[(k, i)], -1.0)

    terms = []
    for (i, j) in PAIRS:
        row = []
        for k in range(4):
            if k not in (i, j):
                (ik, s_ik), (jk, s_jk) = comp(i, k), comp(j, k)
                row += [(ik, jk, s_ik * s_jk), (jk, ik, -s_ik * s_jk)]
        terms.append(row)
    left, right, sign = np.moveaxis(np.array(terms), -1, 0)
    return left.astype(int), right.astype(int), sign


#: circ(a, b)[c] = sum_t CIRC_SIGN[c, t] * a[CIRC_LEFT[c, t]] * b[CIRC_RIGHT[c, t]]
CIRC_LEFT, CIRC_RIGHT, CIRC_SIGN = _circ_terms()
CIRC_LEFT.flags.writeable = CIRC_RIGHT.flags.writeable = CIRC_SIGN.flags.writeable = False


def circ(a, b):
    """(a o b)_ij = sum_k (a_ik b_jk - a_jk b_ik), on six-component arrays.

    Bilinear and antisymmetric; maps a pair of orthonormal self-dual basis
    elements to another unit self-dual form (e1 o e2 = e3 etc.). Applied
    through its 24 nonzero +-1 structure constants; broadcasts over
    leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(CIRC_SIGN * a[..., CIRC_LEFT] * b[..., CIRC_RIGHT], axis=-1)


# -- operators on the self-dual space ---------------------------------------

def weyl_norm(w):
    """sqrt(sum of squared eigenvalues) = Frobenius norm of symmetric
    operators (..., 3, 3); returns (...)."""
    w = np.asarray(w, dtype=float)
    return np.sqrt(np.sum(w * w, axis=(-2, -1)))


def weyl_quad(w, coeffs):
    """<omega, w * omega> for operators (..., 3, 3) and scalar coefficient
    triples (..., 3), broadcast against each other; returns (...)."""
    v = np.asarray(coeffs, dtype=float)
    return np.einsum('...a,...ab,...b->...', v, np.asarray(w, dtype=float), v)


def random_weyl(rng, size=()):
    """Random symmetric trace-free 3x3 operators, shape size + (3, 3)."""
    m3 = rng.standard_normal(tuple(size) + (3, 3))
    m = (0.5 * (m3 + m3.swapaxes(-1, -2))).reshape(tuple(size) + (9,))    # row-major entries
    m[..., ::4] -= ((m[..., 0] + m[..., 4] + m[..., 8]) / 3.0)[..., None]   # diagonal 0, 4, 8
    return m.reshape(tuple(size) + (3, 3))


def extremal_weyl(scale=1.0):
    """An operator/coefficient pair attaining |<w,w*w>| = (2/sqrt6)|w||omega|^2.

    Returns (w, coeffs) with w = scale*diag(1, 1, -2) and coeffs aligned
    with the -2 eigenvector, for which <omega, w*omega> = -2*scale|omega|^2
    while |w| = sqrt(6)*scale.
    """
    w = scale * np.diag([1.0, 1.0, -2.0])
    coeffs = np.array([0.0, 0.0, 1.0])
    return w, coeffs
