"""Algebra of 2-forms on oriented Euclidean R^4.

Conventions shared by the whole package:

* a 2-form is stored as its 6 independent components in the fixed index
  order ``(12, 13, 14, 23, 24, 34)`` (component axis last for scalar
  forms);
* the inner product is ``<a, b> = 2 * sum_{i<j} a_ij b_ij``, so the basis
  form dx^12 has squared norm 2;
* the orientation is dx^1 ^ dx^2 ^ dx^3 ^ dx^4, under which
  dx^12 + dx^34, dx^13 - dx^24 and dx^14 + dx^23 span the self-dual space;
  it is written once, in ``STAR``, and ``sd_basis`` is read off it;
* a 2-form is the skew 4x4 matrix (a_ij) in so(4): its product and bracket
  are ``liealg.circ`` and ``liealg.SO4``, on the basis ``liealg.SO4_BASIS``.

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
PAIR_I.flags.writeable = PAIR_J.flags.writeable = False

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

    e1 = (dx^12 + dx^34)/2, e2 = (dx^13 - dx^24)/2, e3 = (dx^14 + dx^23)/2:
    the self-dual parts of dx^12, dx^13, dx^14, read off STAR at call time.
    """
    return 0.5 * (np.eye(6)[:3] + STAR[:3])


def random_sd_basis(rng, size=()):
    """Random orthonormal bases (rows) of the self-dual space, size + (3, 6).

    Any orthonormal triple is an orthogonal mix of the standard one, so a
    Haar-ish random O(3) factor applied to sd_basis() covers them all.
    """
    q, r = np.linalg.qr(rng.standard_normal(tuple(size) + (3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q @ sd_basis()


# -- operators on the self-dual space ---------------------------------------

def weyl_norm(w):
    """sqrt(sum of squared eigenvalues) = Frobenius norm of symmetric
    operators (..., 3, 3); returns (...)."""
    w = np.asarray(w, dtype=float)
    return np.sqrt(np.einsum('...ab,...ab->...', w, w))


def weyl_quad(w, coeffs):
    """<omega, w * omega> = (w v) . v for operators (..., 3, 3) and scalar
    coefficient triples v (..., 3), broadcast against each other; returns (...)."""
    v = np.asarray(coeffs, dtype=float)
    wv = np.einsum('...ab,...b->...a', np.asarray(w, dtype=float), v)
    return np.einsum('...a,...a->...', wv, v)


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
