"""Lie algebras as structure constants, and the sharp bracket constants.

An algebra is its structure constants f[k,l,m] = <[E_k,E_l],E_m>, a
read-only (k, k, k) array on an orthonormal basis E of real skew n x n
matrices with the inner product ``<A, B> = -tr(AB)/2``. Every Lie-algebra
value is its coefficient vector on E, and every bracket is
``bracket_coeffs`` on f. The package uses three algebras, tabulated once
here from the matrix bases ``SU2_BASIS``, ``SO3_BASIS`` and ``SO4_BASIS``:
``SU2``, ``SO3`` and ``SO4``. The instanton's algebra is ``SU2``, the span
of the quaternion generators i, j, k below, for which
|i|^2 = |j|^2 = |k|^2 = 2: its orthonormal basis is (i, j, k)/sqrt2, so
its coefficients are sqrt2 times the quaternion entries.

The two sharp constants computed here are

* ``gamma0``: sup |[A,B]| / (|A||B|) over the algebra, at most sqrt(2),
  with equality on Pauli pairs; exactly 1 on so(3);
* ``gamma1``: sup <omega,[omega,omega]> / |omega|^3 over self-dual
  algebra-valued 2-forms, equal to 4/sqrt(6) for the real su(2) and
  2/sqrt(3) for so(3), and never larger than 4/sqrt(6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import forms4

GAMMA0_SU2 = np.sqrt(2.0)
GAMMA0_SO3 = 1.0
GAMMA1_SU2 = 4.0 / np.sqrt(6.0)
GAMMA1_SO3 = 2.0 / np.sqrt(3.0)
GAMMA1_MAX = 4.0 / np.sqrt(6.0)

# real 4x4 quaternion generators; entries are exact
_O = np.zeros((2, 2))
_I2 = np.eye(2)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SU2_I = np.block([[_O, _I2], [-_I2, _O]])
SU2_J = np.block([[_O, _J], [_J, _O]])
SU2_K = np.block([[_J, _O], [_O, -_J]])
SU2_BASIS = np.stack([SU2_I, SU2_J, SU2_K])

# so(3) as 3x3 rotation generators (L_a)_bc = -eps_abc: [L1, L2] = L3
# cyclically and |L_a| = 1
_a = np.arange(3)
SO3_BASIS = np.zeros((3, 3, 3))
SO3_BASIS[_a, (_a + 1) % 3, (_a + 2) % 3] = -1.0
SO3_BASIS[_a, (_a + 2) % 3, (_a + 1) % 3] = 1.0
# so(4) with basis E_ab - E_ba, a < b
_a, _b = np.triu_indices(4, 1)
SO4_BASIS = np.zeros((6, 4, 4))
SO4_BASIS[np.arange(6), _a, _b] = 1.0
SO4_BASIS[np.arange(6), _b, _a] = -1.0
for _m in (SU2_I, SU2_J, SU2_K, SU2_BASIS, SO3_BASIS, SO4_BASIS):
    _m.setflags(write=False)
del _O, _I2, _J, _a, _b, _m

# sign convention self-test: the toolkit is built on ij = k
if not np.array_equal(SU2_I @ SU2_J, SU2_K):
    raise ImportError("quaternion generator sign convention violated (ij != k)")


def _trace_form(a, b):
    """<A, B> = -tr(AB)/2. Broadcasts over leading axes."""
    return -0.5 * np.einsum('...ij,...ji->...', a, b)


def _structure_constants(basis):
    """f[k,l,m] = <[E_k,E_l],E_m> on the orthonormal basis E = basis / |basis|.

    The basis (k, n, n) must be skew, mutually orthogonal and closed under
    the bracket, or ValueError. The read-only result is totally
    antisymmetric, since the trace form is ad-invariant.
    """
    if not np.max(np.abs(basis + np.swapaxes(basis, -1, -2))) <= 1e-14:
        raise ValueError("basis contains a non-skew matrix")
    onb = basis / np.sqrt(_trace_form(basis, basis))[:, None, None]
    if np.max(np.abs(_trace_form(onb[:, None], onb[None, :]) - np.eye(len(onb)))) > 1e-12:
        raise ValueError("basis is not mutually orthogonal")
    brackets = onb[:, None] @ onb[None, :] - onb[None, :] @ onb[:, None]
    f = _trace_form(brackets[:, :, None], onb)
    # [E_k, E_l] - sum_m f[k,l,m] E_m vanishes iff the span is closed
    rest = brackets - np.einsum('klm,mij->klij', f, onb)
    if np.max(np.sqrt(_trace_form(rest, rest))) > 1e-12:
        raise ValueError("bracket leaves the basis span")
    f.setflags(write=False)
    return f


# the package's three algebras; gamma0 and gamma1 depend on the embedding,
# not just the abstract algebra, so each table is that of its basis
SU2 = _structure_constants(SU2_BASIS)
SO3 = _structure_constants(SO3_BASIS)
SO4 = _structure_constants(SO4_BASIS)


def bracket_coeffs(a, b, f):
    """Coefficients of [A, B] from those of A and B: sum_kl a_k b_l f[k,l,.].

    The package's one bracket, on structure constants f (k, k, k);
    broadcasts over leading axes.
    """
    k = len(f)
    ab = np.asarray(a, dtype=float)[..., :, None] * np.asarray(b, dtype=float)[..., None, :]
    return (ab.reshape(-1, k * k) @ f.reshape(k * k, k)).reshape(ab.shape[:-1])


# -- Lie-algebra-valued 2-forms ---------------------------------------------
# stored as (..., 6, k): six form components (shared index order), each the
# coefficients on the algebra's orthonormal basis. Combined norm
# |P|^2 = 2 sum_{i<j} |P_ij|^2.

def lv_inner(p, q):
    return 2.0 * np.einsum('...ck,...ck->...', np.asarray(p, dtype=float),
                           np.asarray(q, dtype=float))


def lv_norm_sq(p):
    return lv_inner(p, p)


def lv_norm(p):
    return np.sqrt(lv_norm_sq(p))


def lv_hodge(p):
    """*p on the six components as one matmul; exact, each row of STAR holds one +-1."""
    return forms4.STAR @ np.asarray(p, dtype=float)


def lv_self_dual(p):
    """Self-dual part (p + *p)/2; the anti-self-dual part is p minus it."""
    sp = lv_hodge(p)
    sp += p             # in place: the finite-difference suites project large stencils
    sp *= 0.5
    return sp


def comm2form(p, q, f):
    """Bracket of Lie-valued 2-forms on structure constants f.

    [P,Q]_ij = sum_k ([P_ik, Q_jk] - [P_jk, Q_ik]); symmetric in (P, Q),
    self-dual output for self-dual inputs. It has the 24 nonzero +-1
    structure constants of ``forms4.circ``, four per output component, with
    brackets [P_a, Q_b] in place of products; they are applied as one
    gathered ``bracket_coeffs``, so the call broadcasts over leading axes.
    The four-loop version on matrices lives in the test suite as an oracle.
    """
    pa = forms4.CIRC_SIGN[:, :, None] * np.asarray(p, dtype=float)[..., forms4.CIRC_LEFT, :]
    qb = np.asarray(q, dtype=float)[..., forms4.CIRC_RIGHT, :]
    return np.sum(bracket_coeffs(pa, qb, f), axis=-2)


def cubic_form(p, f):
    """<P, [P,P]> under the combined inner product."""
    return lv_inner(p, comm2form(p, p, f))


def bracket_bound_check(p, gamma0, f):
    """(2/sqrt3) * gamma0 * |p|^2 - |[p,p]|; nonnegative for self-dual p."""
    return (2.0 / np.sqrt(3.0)) * gamma0 * lv_norm_sq(p) - lv_norm(comm2form(p, p, f))


# -- sharp-constant optimizers ----------------------------------------------

_TOL = 1e-7         # stop when |P grad f| < _TOL * max(1, |f|)
_MAX_ITER = 800     # per restart: its start plus its steps
_TIE = 1e-12        # relative distance from the best value that counts as a tie


@dataclass
class GammaEstimate:
    """Result of a seeded shifted-power search.

    When ``converged``, ``value`` is a stationary point of f to tolerance
    (projected gradient norm below it on the constraint sphere(s)), not a
    certified maximum; otherwise it is the value at the last step. Either
    way it is a lower bound on the supremum. ``restart`` is the earliest
    restart whose value is within a relative _TIE = 1e-12 of the best one,
    and ``argmax``, ``grad_norm`` and ``iterations`` are that restart's: a
    coefficient pair (x, y) for gamma0 and a unit-norm Lie-valued 2-form
    (6, k) for gamma1. Equality compares every field but ``argmax``.
    """

    value: float
    argmax: object = field(compare=False)
    grad_norm: float
    iterations: int
    restart: int
    converged: bool


def _sphere_ascent(objective, starts):
    """Maximize f over products of unit spheres, all restarts as one array.

    ``starts`` is (R, B, n): one row per restart, each a point on B spheres
    in R^n (normalized here). ``objective(z)`` returns f (R',) and its
    gradient g (R', B, n) for any (R', B, n) stack; f is homogeneous of
    degree d in each sphere's point, so z.g = d f, and is positive.
    Each loop moves every active restart, sphere by sphere, by the shifted
    power step z <- unit(g + (z.g) z), a projected-gradient step of length
    1/(2 z.g) with no step size to search or store, and makes one
    objective call on the active rows. A restart stops when
    |P grad f| < _TOL max(1, |f|) (converged) or after _MAX_ITER points.
    The active rows are held as compact arrays (rows, zc, fc, gc), in
    restart order; every one has evaluated ``points`` points, and a
    restart's point, value and |P grad f| are written back once, when it
    stops. Returns a GammaEstimate of f for the earliest restart within a
    relative _TIE of the best value, with its point as ``argmax``.
    """
    z = starts / np.sqrt((starts * starts).sum(axis=-1, keepdims=True))
    val, grad = objective(z)
    rows, zc, fc, gc, points = np.arange(len(z)), z, val, grad, 1
    gn, iterations, converged = np.empty(len(z)), np.empty(len(z), int), np.empty(len(z), bool)
    while True:
        radial = (gc * zc).sum(axis=-1, keepdims=True) * zc
        gnc = np.sqrt(((gc - radial) ** 2).sum(axis=(-2, -1)))
        conv = gnc < _TOL * np.maximum(1.0, np.abs(fc))
        stop = conv | (points >= _MAX_ITER)
        power = gc + radial
        if stop.any():
            done = rows[stop]
            z[done], val[done], gn[done], converged[done], iterations[done] = (
                zc[stop], fc[stop], gnc[stop], conv[stop], points)
            if stop.all():
                break
            rows, power = rows[~stop], power[~stop]
        zc = power / np.sqrt((power * power).sum(axis=-1, keepdims=True))
        fc, gc = objective(zc)
        points += 1
    r = int(np.flatnonzero(val >= val.max() - _TIE * abs(val.max()))[0])
    return GammaEstimate(float(val[r]), z[r], float(gn[r]), int(iterations[r]), r,
                         bool(converged[r]))


def _starts(restarts, seed, shape):
    """``restarts`` standard normal draws of ``shape``, seeded; a count that
    is a bool, not an integer or below 1 raises ValueError."""
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    return np.random.default_rng(seed).standard_normal((restarts, *shape))


def gamma0_estimate(f, restarts=64, seed=0):
    """Maximize |[A,B]| / (|A||B|) by the shifted power iteration on two spheres.

    Works on coefficients x, y on the orthonormal basis of the structure
    constants f: the ascent climbs |c|^2 for c = [x, y], with gradients
    2[y, c] and 2[c, x] (f is totally antisymmetric). ``grad_norm`` is that
    of the ratio |c| itself and ``argmax`` the coefficient pair (x, y).
    Deterministic for a fixed seed.
    """
    def objective(z):
        c = bracket_coeffs(z[:, 0], z[:, 1], f)
        grad = bracket_coeffs(np.stack([z[:, 1], c], axis=1), np.stack([c, z[:, 0]], axis=1), f)
        return np.sum(c * c, axis=-1), 2.0 * grad

    est = _sphere_ascent(objective, _starts(restarts, seed, (2, len(f))))
    norm = float(np.sqrt(est.value))
    return replace(est, value=norm, argmax=tuple(est.argmax),
                   grad_norm=est.grad_norm / (2.0 * max(norm, 1e-15)))


def sd_cubic_tensor(f):
    """Symmetric tensor T with <omega,[omega,omega]> = T(z, z, z).

    omega = sum_a e_a (x) sum_k z[a,k] E_k over the self-dual basis e_a of
    ``forms4.sd_basis`` and the orthonormal algebra basis E_k. Since
    [e_b (x) A, e_c (x) B] = (e_b o e_c) (x) [A,B], the cubic form
    factorizes exactly as

        <omega,[omega,omega]> = sum eps[a,b,c] f[l,m,k] z[a,k] z[b,l] z[c,m]

    with eps[a,b,c] = <e_a, e_b o e_c> (the Levi-Civita symbol on the
    standard basis) and f the structure constants. Returned as a
    (3k, 3k, 3k) array over the flattened index (a, k); it is fully
    symmetric, both factors being totally antisymmetric.
    """
    e = forms4.sd_basis()
    eps = forms4.inner_2form(e[:, None, None], forms4.circ(e[:, None], e[None, :])[None])
    k = len(f)
    return np.einsum('abc,lmk->akblcm', eps, f).reshape(3 * k, 3 * k, 3 * k)


def gamma1_estimate(f, restarts=64, seed=0):
    """Maximize <omega,[omega,omega]> / |omega|^3 over self-dual forms.

    omega is parameterized by three orthonormal-basis coefficient vectors z
    (one per self-dual basis form) on the single sphere |omega| = |z| = 1.
    The cubic form is T(z, z, z) for the fully symmetric tensor
    T = eps (x) f of ``sd_cubic_tensor``, so its gradient is 3 T(., z, z),
    the coefficient array of 3[omega,omega]. Each start is flipped to make
    the cubic form nonnegative. The argmax is the Lie-valued 2-form
    ``forms4.sd_basis().T @ z``.
    """
    k = len(f)
    t2 = sd_cubic_tensor(f).reshape(3 * k, 9 * k * k)

    def objective(z):
        zf = z[:, 0]
        tzz = np.einsum('rij,rj->ri', (zf @ t2).reshape(-1, 3 * k, 3 * k), zf)
        return np.sum(zf * tzz, axis=-1), 3.0 * tzz[:, None]

    starts = _starts(restarts, seed, (3, k)).reshape(-1, 1, 3 * k)
    starts *= np.where(objective(starts)[0] < 0.0, -1.0, 1.0)[:, None, None]
    est = _sphere_ascent(objective, starts)
    return replace(est, argmax=forms4.sd_basis().T @ est.argmax.reshape(3, k))
