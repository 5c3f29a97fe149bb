"""Skew-symmetric matrix Lie algebras and the sharp bracket constants.

Elements are real skew-symmetric n x n matrices with the inner product
``<A, B> = -tr(AB)/2``, positive definite on skew matrices. Under it the
quaternion generators below satisfy |i|^2 = |j|^2 = |k|^2 = 2.

The two sharp constants computed here are

* ``gamma0``: sup |[A,B]| / (|A||B|) over the algebra, at most sqrt(2),
  with equality on Pauli pairs; exactly 1 on so(3);
* ``gamma1``: sup <omega,[omega,omega]> / |omega|^3 over self-dual
  algebra-valued 2-forms, equal to 4/sqrt(6) for the real su(2) and
  2/sqrt(3) for so(3), and never larger than 4/sqrt(6).

Both searches run on orthonormal-basis coefficients through the structure
constants f[k,l,m] = <[E_k,E_l],E_m> that each ``AlgebraSpec`` tabulates
once, never on matrices.
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
for _m in (SU2_I, SU2_J, SU2_K):
    _m.setflags(write=False)

# sign convention self-test: the toolkit is built on ij = k
if not np.array_equal(SU2_I @ SU2_J, SU2_K):
    raise ImportError("quaternion generator sign convention violated (ij != k)")


def ip_endo(a, b):
    """<A, B> = -tr(AB)/2. Broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return -0.5 * np.einsum('...ij,...ji->...', a, b)


def norm_endo(a):
    return np.sqrt(ip_endo(a, a))


def bracket(a, b):
    """Matrix commutator ab - ba; skew-symmetric when a, b are."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_skew(a):
    a = np.asarray(a, dtype=float)
    return np.max(np.abs(a + np.swapaxes(a, -1, -2))) <= 1e-14


def pauli_pair(t, s, n=4):
    """The commuting-block pair attaining |[A,B]| = sqrt(2)|A||B|.

    A carries t on two diagonal rotation blocks, B couples the blocks with
    +-s; both are padded with zeros to dimension n. Degenerate t or s
    simply yields a zero matrix.
    """
    if n < 4:
        raise ValueError("pauli pair needs dimension >= 4")
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[0, 1], a[1, 0], a[2, 3], a[3, 2] = t, -t, t, -t
    b[0, 2], b[2, 0], b[1, 3], b[3, 1] = -s, s, s, -s
    return a, b


def so3_generators():
    """3x3 rotation generators with [L1, L2] = L3 cyclically and |La| = 1."""
    gens = np.zeros((3, 3, 3))
    for a in range(3):
        for bb in range(3):
            for c in range(3):
                # (L_a)_bc = -eps_abc
                gens[a, bb, c] = -_levi_civita(a, bb, c)
    return gens


def _levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) / 2.0


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A concrete matrix Lie algebra: a name, ambient dimension, and basis.

    The basis (k, n, n) must consist of skew matrices, be linearly
    independent, and close under the bracket; this is checked at
    construction. The constants gamma0/gamma1 depend on the embedding, not
    just the abstract algebra, so specs built by different factories are
    not interchangeable.
    """

    name: str
    n: int
    basis: np.ndarray
    _onb: np.ndarray = field(init=False, repr=False, compare=False)
    _f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, 'basis', basis)
        if basis.ndim != 3 or basis.shape[1:] != (self.n, self.n):
            raise ValueError(f"basis shape {basis.shape} does not match n={self.n}")
        if not is_skew(basis):
            raise ValueError("basis contains a non-skew matrix")
        gram = ip_endo(basis[:, None], basis[None, :])
        if np.linalg.matrix_rank(gram, tol=1e-10) < len(basis):
            raise ValueError("basis is linearly dependent")
        # orthonormalize (the built-in bases are already orthogonal)
        chol = np.linalg.cholesky(gram)
        onb = np.einsum('pk,kij->pij', np.linalg.inv(chol), basis)
        object.__setattr__(self, '_onb', onb)
        brackets = bracket(onb[:, None], onb[None, :])
        object.__setattr__(self, '_f', ip_endo(brackets[:, :, None], onb))
        self._check_closure(brackets)

    def _check_closure(self, brackets):
        """[E_k, E_l] - sum_m f[k,l,m] E_m vanishes iff the span is closed."""
        leak = brackets - np.einsum('klm,mij->klij', self._f, self._onb)
        if np.max(norm_endo(leak)) > 1e-12:
            raise ValueError(f"{self.name}: bracket leaves the basis span")

    @property
    def dim(self):
        return len(self.basis)

    @property
    def orthonormal_basis(self):
        return self._onb

    @property
    def structure_constants(self):
        """f[k,l,m] = <[E_k, E_l], E_m> on the orthonormal basis E.

        Totally antisymmetric, since the trace form is ad-invariant.
        """
        return self._f

    def element(self, coeffs):
        """Linear combination of the orthonormal basis."""
        return np.einsum('...k,kij->...ij', np.asarray(coeffs, dtype=float), self._onb)

    @classmethod
    def su2_real(cls):
        """span{i, j, k} as real 4x4 matrices."""
        return cls('su2_real', 4, np.stack([SU2_I, SU2_J, SU2_K]))

    @classmethod
    def so3_block(cls, n=4):
        """so(3) as 3x3 rotation generators padded to dimension n."""
        gens3 = so3_generators()
        gens = np.zeros((3, n, n))
        gens[:, :3, :3] = gens3
        return cls('so3_block', n, gens)

    @classmethod
    def so_n(cls, n):
        """Full so(n) with basis E_ab - E_ba, a < b."""
        basis = []
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n))
                m[a, b] = 1.0
                m[b, a] = -1.0
                basis.append(m)
        return cls(f'so({n})', n, np.stack(basis))


def algebra_by_name(name, n=4):
    key = name.lower().replace('_', '').replace('-', '')
    if key in ('su2', 'su2real', 'su(2)'):
        return AlgebraSpec.su2_real()
    if key in ('so3', 'so3block', 'so(3)'):
        return AlgebraSpec.so3_block(n)
    if key in ('so4', 'so(4)'):
        return AlgebraSpec.so_n(4)
    raise ValueError(f"unknown algebra {name!r} (su2, so3, so4)")


# -- Lie-algebra-valued 2-forms ---------------------------------------------
# stored as (..., 6, n, n): six form components (shared index order), each a
# skew matrix. Combined norm |P|^2 = 2 sum_{i<j} |P_ij|^2.

def lv_inner(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return -np.einsum('...cij,...cji->...', p, q)


def lv_norm_sq(p):
    return lv_inner(p, p)


def lv_norm(p):
    return np.sqrt(lv_norm_sq(p))


def lv_hodge(p):
    return np.einsum('ab,...bij->...aij', forms4.STAR, np.asarray(p, dtype=float))


def lv_sd_project(p):
    p = np.asarray(p, dtype=float)
    sp = lv_hodge(p)
    return 0.5 * (p + sp), 0.5 * (p - sp)


def lv_from_sd_coeffs(coeffs, basis=None):
    """Assemble sum_a e_a (x) coeffs[a] from (..., 3, n, n) coefficients."""
    e = forms4.sd_basis() if basis is None else np.asarray(basis, dtype=float)
    return np.einsum('ac,...aij->...cij', e, np.asarray(coeffs, dtype=float))


_BRACKET_SIGN = forms4.CIRC_SIGN[:, :, None, None]


def comm2form(p, q):
    """Bracket of Lie-valued 2-forms.

    [P,Q]_ij = sum_k ([P_ik, Q_jk] - [P_jk, Q_ik]); symmetric in (P, Q),
    self-dual output for self-dual inputs. It has the 24 nonzero +-1
    structure constants of ``forms4.circ``, four per output component, with
    commutators [P_a, Q_b] in place of products; they are applied as one
    gathered batched matmul, so the call broadcasts over leading axes. The
    explicit four-loop version lives in the test suite as an oracle.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    pa = p[..., forms4.CIRC_LEFT, :, :]
    qb = q[..., forms4.CIRC_RIGHT, :, :]
    return np.sum(_BRACKET_SIGN * (pa @ qb - qb @ pa), axis=-3)


def cubic_form(p):
    """<P, [P,P]> under the combined inner product."""
    return lv_inner(p, comm2form(p, p))


def bracket_bound_check(p, gamma0):
    """(2/sqrt3) * gamma0 * |p|^2 - |[p,p]|; nonnegative for self-dual p."""
    return (2.0 / np.sqrt(3.0)) * gamma0 * lv_norm_sq(p) - lv_norm(comm2form(p, p))


# -- sharp-constant optimizers ----------------------------------------------

_TOL = 1e-7         # stop when |P grad f| < _TOL * max(1, |f|)
_MAX_ITER = 800     # gradient evaluations per restart
_TIE = 1e-12        # relative distance from the best value that counts as a tie


@dataclass
class GammaEstimate:
    """Result of a seeded projected-gradient search.

    ``value`` is a certified local maximum when ``converged`` (projected
    gradient norm below tolerance on the constraint sphere(s)); otherwise
    it is the best value reached. ``restart`` is the earliest restart whose
    value is within a relative _TIE = 1e-12 of the best one, and ``argmax``,
    ``grad_norm`` and ``iterations`` are that restart's: an (A, B) pair for
    gamma0 and a unit-norm Lie-valued 2-form for gamma1.
    """

    value: float
    argmax: object
    grad_norm: float
    iterations: int
    restart: int
    converged: bool


def _sphere_ascent(objective, starts):
    """Maximize f over products of unit spheres, all restarts as one array.

    ``starts`` is (R, B, n): one row per restart, each a point on B spheres
    in R^n (normalized here). ``objective(z)`` returns f (R',) and its
    gradient (R', B, n) for any (R', B, n) stack. Each restart keeps its
    own step along the projected gradient: a renormalized trial step is
    accepted if it raises f (step x1.5, at most 1) and halved otherwise. A
    restart stops when |P grad f| < _TOL max(1, |f|) (converged), when its
    step falls to 1e-16, or after _MAX_ITER gradient evaluations. Returns a
    GammaEstimate of f for the earliest restart within a relative _TIE of
    the best value, with its point as ``argmax``.
    """
    if len(starts) < 1:
        raise ValueError("restarts must be >= 1")

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def tangent(g, z):
        pg = g - np.sum(g * z, axis=-1, keepdims=True) * z
        return pg, np.sqrt(np.sum(pg * pg, axis=(-2, -1)))

    z = unit(starts)
    val, grad = objective(z)
    pg, gn = tangent(grad, z)
    iterations = np.ones(len(z), dtype=int)
    step = np.full(len(z), 0.5)
    while True:
        converged = gn < _TOL * np.maximum(1.0, np.abs(val))
        active = np.flatnonzero(~converged & (step > 1e-16) & (iterations < _MAX_ITER))
        if not active.size:
            break
        trial = unit(z[active] + step[active, None, None] * pg[active])
        tval, tgrad = objective(trial)
        up = tval > val[active]
        acc = active[up]
        z[acc], val[acc] = trial[up], tval[up]
        pg[acc], gn[acc] = tangent(tgrad[up], trial[up])
        iterations[acc] += 1
        step[acc] = np.minimum(1.5 * step[acc], 1.0)
        step[active[~up]] *= 0.5
    r = int(np.flatnonzero(val >= val.max() - _TIE * abs(val.max()))[0])
    return GammaEstimate(float(val[r]), z[r], float(gn[r]), int(iterations[r]), r,
                         bool(converged[r]))


def gamma0_estimate(alg, restarts=64, seed=0):
    """Maximize |[A,B]| / (|A||B|) by projected gradient ascent on spheres.

    Works on orthonormal-basis coefficients x, y with the algebra's
    structure constants f: [A,B] has coefficients c = f(x, y, .), so the
    ascent climbs |c|^2 with gradients 2 f(., y, c) and 2 f(x, ., c) (the
    coefficients of 2[B,[A,B]] and 2[[A,B],A] by ad-invariance).
    ``grad_norm`` is that of the ratio |c| itself. Deterministic for a
    fixed seed.
    """
    k = alg.dim
    f = alg.structure_constants
    f2 = f.reshape(k, k * k)

    def objective(z):
        x, y = z[:, 0], z[:, 1]
        ad_x = (x @ f2).reshape(-1, k, k)       # ad_x[r, l, m] = f(x_r, l, m)
        c = np.einsum('rl,rlm->rm', y, ad_x)
        gx = np.einsum('klm,rl,rm->rk', f, y, c)
        gy = np.einsum('rlm,rm->rl', ad_x, c)
        return np.sum(c * c, axis=-1), 2.0 * np.stack([gx, gy], axis=1)

    est = _sphere_ascent(objective, np.random.default_rng(seed).standard_normal((restarts, 2, k)))
    x, y = est.argmax
    norm = np.sqrt(est.value)
    return replace(est, value=float(norm), argmax=(alg.element(x), alg.element(y)),
                   grad_norm=est.grad_norm / (2.0 * max(norm, 1e-15)))


def sd_cubic_tensor(alg):
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
    k = alg.dim
    return np.einsum('abc,lmk->akblcm', eps, alg.structure_constants).reshape(3 * k, 3 * k, 3 * k)


def gamma1_estimate(alg, restarts=64, seed=0):
    """Maximize <omega,[omega,omega]> / |omega|^3 over self-dual forms.

    omega is parameterized by three orthonormal-basis coefficient vectors z
    (one per self-dual basis form) on the single sphere |omega| = |z| = 1.
    The cubic form is T(z, z, z) for the fully symmetric tensor
    T = eps (x) f of ``sd_cubic_tensor``, so its gradient is 3 T(., z, z),
    the coefficient array of 3[omega,omega]. Each start is flipped to make
    the cubic form nonnegative. The argmax is assembled as a Lie-valued
    2-form.
    """
    k = alg.dim
    t2 = sd_cubic_tensor(alg).reshape(3 * k, 9 * k * k)

    def objective(z):
        zf = z[:, 0]
        tzz = np.einsum('rij,rj->ri', (zf @ t2).reshape(-1, 3 * k, 3 * k), zf)
        return np.sum(zf * tzz, axis=-1), 3.0 * tzz[:, None]

    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, 3, k)).reshape(restarts, 1, 3 * k)
    starts *= np.where(objective(starts)[0] < 0.0, -1.0, 1.0)[:, None, None]
    est = _sphere_ascent(objective, starts)
    coeffs = np.einsum('ak,kij->aij', est.argmax.reshape(3, k), alg.orthonormal_basis)
    return replace(est, argmax=lv_from_sd_coeffs(coeffs))
