"""Modified Yamabe machinery on the round S^4, radial sector.

The modified scalar curvature is Phi = R - 2 sqrt(6) |W+| - 3 gamma1 |F+|
and the associated operator L = -6 Lap + Phi is conformally covariant in
dimension 4: for g_hat = u^2 g, Phi_hat = u^-3 L u, and the sign of the
first eigenvalue of L is a conformal invariant.

Everything here is rotationally symmetric: functions live on the geodesic
polar angle rho in [0, pi] sampled at cell centers rho_i = (i+1/2)h. The
radial operator -6 (sin^3 rho)^-1 d/drho (sin^3 rho d/drho) + Phi is
discretized in conservative (finite-volume) form with exact per-cell
volumes of sin^3; fluxes vanish at the poles, which encodes the
regularity boundary condition. Constants are annihilated exactly, so
Phi = const reproduces lambda_1 = const to roundoff on any grid.

One discrete operator, ``SLProblem``, evaluates L: the field ``phi_of`` returns is the
round problem for its Phi, and Phi_hat = u^-3 L u goes through ``SLProblem.apply`` on a
problem the caller builds once. A grid size n is an integer >= 8; round grids are
tabulated once per n, as read-only arrays that the problems of that size share, and a
round problem's potential is finite at every node.

``covariance_check`` and ``cosine_yamabe_quotients`` take factors as rows (c_0, ..., c_K)
of u = c_0 + sum_(k>=1) c_k cos(k rho); a row with sum |c_k| < c_0 is positive as it
stands, and any other is refused where u <= 0 at a node, as ``yamabe_quotient`` is.

A ``RadialFunction`` argument means either a vectorized callable of rho or
an array of node values.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

SQRT6 = np.sqrt(6.0)
TWO_PI_SQ = 2.0 * np.pi ** 2

ROUND_SCALAR_CURVATURE = 12.0
ROUND_VOLUME = 8.0 * np.pi ** 2 / 3.0
#: Yamabe invariant of the round conformal class: 12 * sqrt(vol) = 8 sqrt(6) pi
YAMABE_S4 = ROUND_SCALAR_CURVATURE * np.sqrt(ROUND_VOLUME)


def cell_grid(n):
    """Cell-center nodes and spacing on [0, pi]; n an integer >= 8."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 8:
        raise ValueError(f"grid size must be an integer >= 8; got {n!r}")
    h = np.pi / n
    return (np.arange(n) + 0.5) * h, h


@functools.lru_cache(maxsize=8, typed=True)      # typed: 2000.0 must miss, not hit 2000
def cell_volumes(n):
    """Exact int sin^3 over each cell, in cancellation-free product form; read-only.

    Naive differences of the primitive cos^3/3 - cos lose all digits at
    pole cells once n is a few thousand.
    """
    _, h = cell_grid(n)
    faces = np.arange(n + 1) * h
    a, b = faces[:-1], faces[1:]
    mid = 0.5 * (a + b)
    sh = np.sin(0.5 * h)
    bracket = (np.sin(a) ** 2 + np.sin(b) ** 2 + sh ** 2 + np.sin(mid) ** 2) / 3.0
    vol = 2.0 * np.sin(mid) * sh * bracket
    vol.setflags(write=False)
    return vol


@functools.lru_cache(maxsize=8)
def _face_conductivities(n):
    """6 sin^3 at the n + 1 faces, zero at the poles; read-only, one table per n."""
    cond = 6.0 * np.sin(np.arange(n + 1) * (np.pi / n)) ** 3
    cond[[0, -1]] = 0.0
    cond.setflags(write=False)
    return cond


def as_values(u, rho):
    """Sample a RadialFunction: callable of rho, scalar, or node array."""
    if callable(u):
        vals = np.asarray(u(rho), dtype=float)
    else:
        vals = np.asarray(u, dtype=float)
        if vals.ndim == 0:
            vals = np.full_like(rho, float(vals))
    if vals.shape != rho.shape:
        raise ValueError("radial values do not match the grid")
    return vals


@dataclass(frozen=True)
class SLProblem:
    """Discrete -6 Lap + Phi in finite-volume form.

    ``weight`` are cell masses (volume element), ``cond`` face
    conductivities including the 6 (zero at the poles), ``phi`` node
    potential values. The symmetrized operator is tridiagonal and
    symmetric by construction under the weight inner product.
    """

    rho: np.ndarray
    h: float
    weight: np.ndarray
    cond: np.ndarray
    phi: np.ndarray

    def stiffness_times(self, f):
        """Inflow minus outflow of f's face fluxes, -6 Lap f times the cell
        masses; broadcasts over leading axes of f."""
        flux = self.cond[1:-1] * np.diff(f) / self.h
        out = np.zeros(np.shape(f))
        out[..., :-1] = flux
        out[..., 1:] -= flux
        return np.negative(out, out=out)        # negated last, as -np.diff was: same signed zeros

    def apply(self, f):
        """Pointwise (-6 Lap + Phi) f at the nodes."""
        return self.stiffness_times(f) / self.weight + self.phi * f

    def quadratic_form(self, f):
        df = np.diff(f)
        return float(np.sum(self.cond[1:-1] * df * df) / self.h + np.sum(self.phi * f * f * self.weight))

    def tridiagonal(self):
        """(diag, offdiag) of the weight-symmetrized operator."""
        d = (self.cond[:-1] + self.cond[1:]) / (self.h * self.weight) + self.phi
        e = -self.cond[1:-1] / (self.h * np.sqrt(self.weight[:-1] * self.weight[1:]))
        return d, e


def round_problem(phi, n=2000):
    """-6 Lap + Phi on the unit round S^4: face conductivities 6 sin^3, zero at the poles.
    A potential not finite at every node raises ValueError."""
    rho, h = cell_grid(n)
    phi = as_values(phi, rho)
    if not np.all(np.isfinite(phi)):
        raise ValueError("the potential must be finite at every node")
    return SLProblem(rho, h, cell_volumes(n), _face_conductivities(n), phi)


@dataclass(frozen=True)
class ModifiedScalarField(SLProblem):
    """The round problem for Phi = scalar_curv - 2 sqrt(6) weyl_norm - 3 gamma1 f_plus_norm
    and the constituents covariance_check's route (b) transforms, a float where constant."""

    scalar_curv: np.ndarray | float
    weyl_norm: np.ndarray | float
    f_plus_norm: np.ndarray | float
    gamma1: float


def phi_of(scalar_curv, weyl_norm, f_plus_norm, gamma1, n=2000):
    """Assemble the modified scalar curvature field on an n-cell grid; scalars stay floats.
    A negative or non-finite gamma1, or a non-finite constituent, raises ValueError."""
    if not 0 <= gamma1 < np.inf:
        raise ValueError(f"gamma1 must be nonnegative and finite; got {gamma1!r}")
    rho, _ = cell_grid(n)
    r, w, f = (float(v) if np.isscalar(v) else as_values(v, rho)
               for v in (scalar_curv, weyl_norm, f_plus_norm))
    for name, v in (("scalar_curv", r), ("weyl_norm", w), ("f_plus_norm", f)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    phi = r - 2.0 * SQRT6 * w - 3.0 * gamma1 * f
    return ModifiedScalarField(**vars(round_problem(phi, n)), scalar_curv=r, weyl_norm=w,
                               f_plus_norm=f, gamma1=float(gamma1))


def pointwise_laplacian(u_vals, prob):
    """u'' + 3 cot(rho) u' on the nodes of ``prob`` by central differences with even
    reflection at the poles; an independent discretization sharing only the grid.
    Broadcasts over leading axes of u_vals."""
    ug = np.concatenate([u_vals[..., :1], u_vals, u_vals[..., -1:]], axis=-1)
    # 3 u' cot(rho), then u'' as (u+ - 2u + u-) / h^2, each built in place
    cot_term = ug[..., 2:] - ug[..., :-2]
    cot_term /= 2.0 * prob.h
    cot_term *= 3.0
    cot_term /= np.tan(prob.rho)
    lap = 2.0 * ug[..., 1:-1]
    np.subtract(ug[..., 2:], lap, out=lap)
    lap += ug[..., :-2]
    lap /= prob.h ** 2
    lap += cot_term
    return lap


#: step cap of the inverse iteration in ``lambda1``
_MAX_ITER = 400


class EigenSolveError(RuntimeError):
    """``lambda1`` met a non-finite operator, or reached its step cap above its residual floor."""


def _doubling(c):
    """In-place solver of y_i = b_i + c_i y_(i-1), c_0 = 0, by recursive doubling
    (Stone, J. ACM 20, 1973), with the coefficients of every level built once."""
    levels, s = [], 1
    while s < len(c):
        levels.append((s, c[s:]))
        c = np.concatenate((c[:s], c[s:] * c[:-s]))
        s *= 2

    def solve(b):
        for s, cs in levels:
            b[s:] += cs * b[:-s]
        return b
    return solve


def lambda1(prob):
    """Smallest eigenvalue and positive eigenfunction of the discrete L.

    Inverse iteration on the weight-symmetrized tridiagonal T from the positive
    start sqrt(weight), exact for constant Phi, shifted 1, 4, 16, ... below the
    start's Rayleigh quotient until every pivot of T - sigma I = L D L^T is positive,
    and at most to one below the Gershgorin bound: then sigma < lambda1 (Sylvester),
    both sweeps add only nonnegative terms and every iterate stays positive.
    Stops at ||T v - lam v|| <= 8 eps ||T||_inf."""
    d, e = prob.tridiagonal()
    off = np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])
    floor = 8.0 * np.finfo(float).eps * np.max(np.abs(d) + off)
    if not np.isfinite(floor):
        raise EigenSolveError("the operator has a non-finite entry")
    lowest = np.min(d - off) - 1.0          # the pivots are >= 1 from here
    v = np.sqrt(prob.weight / np.sum(prob.weight))
    start, width = float(v @ (d * v) + 2.0 * (e * v[1:]) @ v[:-1]), 1.0
    e2 = (e * e).tolist()
    while True:
        sigma = max(lowest, start - width)
        p, pivots = float(d[0] - sigma), []
        for a, b in zip((d[1:] - sigma).tolist(), e2):
            pivots.append(p)
            if p <= 0.0:
                break
            p = a - b / p
        if sigma == lowest or (p > 0.0 and len(pivots) == len(e)):
            break
        width *= 4.0
    pivots = np.array(pivots + [p])
    c = -e / pivots[:-1]
    forward, backward = _doubling(np.r_[0.0, c]), _doubling(np.r_[0.0, c[::-1]])
    for _ in range(_MAX_ITER):
        x = backward((forward(v.copy()) / pivots)[::-1])[::-1]
        v = x / np.linalg.norm(x)
        tv = d * v
        tv[:-1] += e * v[1:]
        tv[1:] += e * v[:-1]
        lam = float(v @ tv)
        residual = float(np.linalg.norm(tv - lam * v))
        if residual <= floor:
            phi1 = v / np.sqrt(prob.weight)
            return lam, phi1 / np.max(phi1)
    raise EigenSolveError(f"residual {residual:.3e} above its floor {floor:.3e} after {_MAX_ITER} steps")


def rayleigh(prob, f):
    """Quadratic-form quotient of the discrete operator; >= lambda1."""
    vals = as_values(f, prob.rho)
    den = float(np.sum(vals * vals * prob.weight))
    if den <= 0.0 or not np.isfinite(den):
        raise ValueError("test function has zero norm")
    return prob.quadratic_form(vals) / den


def transform_problem(prob, u):
    """Eigenproblem for the conformally changed metric g_hat = u^2 g.

    u must be a callable, positive at the faces and the nodes, so it is sampled at
    both. Conductivities scale by u^2, masses by u^4, and the potential becomes
    Phi_hat = u^-3 L u through ``prob.apply``. The sign of lambda1 is preserved.
    """
    if not callable(u):
        raise ValueError("transform_problem needs a callable conformal factor")
    uf = np.asarray(u(np.arange(len(prob.rho) + 1) * prob.h), dtype=float)
    un = as_values(u(prob.rho), prob.rho)      # a constant's scalar as node values
    if not (np.all(uf > 0) and np.all(un > 0)):
        raise ValueError("conformal factor must be positive")
    return SLProblem(prob.rho, prob.h, prob.weight * un ** 4, prob.cond * uf ** 2,
                     prob.apply(un) / un ** 3)


def _cosine_rows(coeffs, rho):
    """Float rows (F, K+1) of ``coeffs`` and cos(k rho), k >= 1, at rho (K, n); a malformed
    array, or a row with sum |c_k| >= c_0 not positive at every node, raises ValueError."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError("coeffs must be a non-empty 2-D array of finite coefficients; "
                         f"got shape {coeffs.shape}")
    modes = np.cos(np.arange(1, coeffs.shape[1])[:, None] * rho)
    loose = np.sum(np.abs(coeffs[:, 1:]), axis=1) >= coeffs[:, 0]
    if not all(np.all(c[0] + c[1:] @ modes > 0) for c in coeffs[loose]):
        raise ValueError("conformal factor must be positive")
    return coeffs, modes


def covariance_check(coeffs, field):
    """Max pointwise gap between the two routes to Phi_hat, for each factor
    u = c_0 + sum_(k>=1) c_k cos(k rho), one row c of ``coeffs`` (F, K+1): (F,).

    Route (a): u^-3 L u with the conservative (flux) operator of ``field``.
    Route (b): transform each constituent (R_hat = u^-3(-6 Lap u + R u)
    with the pointwise cotangent Laplacian, |W+| and |F+| scaling by
    u^-2) and recombine. Both are O(h^2) discretizations of the same
    identity, so the gap is O(h^2) and sensitive to any factor or sign
    slip in either route. Both Laplacians are linear, so each is applied
    once, to the K cosine modes, and a factor's two Laplacians are its c_k
    combinations of those images; a constant's images are exactly zero in
    both. Every factor is checked positive at the nodes, by the module's one
    rule, before either Laplacian is applied.
    """
    coeffs, modes = _cosine_rows(coeffs, field.rho)
    point = pointwise_laplacian(modes, field)
    flux = field.stiffness_times(modes) / field.weight
    return np.array([_route_gap(c[0] + c[1:] @ modes, c[1:] @ point, c[1:] @ flux, field)
                     for c in coeffs])


def _route_gap(u, point_lap, flux_lap, field):
    """Max |route (b) - route (a)| of ``covariance_check`` for the node values u of one
    factor and its two Laplacians, the pointwise and the flux one, which it overwrites:
    in place, one array at a time."""
    u2, u3 = u ** 2, u ** 3
    route_b = point_lap
    route_b *= -6.0
    route_b += field.scalar_curv * u
    route_b /= u3
    route_b -= 2.0 * SQRT6 * field.weyl_norm / u2
    route_b -= 3.0 * field.gamma1 * field.f_plus_norm / u2
    route_a = flux_lap                           # (-6 Lap u + Phi u) / u^3, as field.apply
    route_a += field.phi * u
    route_a /= u3
    route_b -= route_a
    return float(np.max(np.abs(route_b, out=route_b)))


def yamabe_quotient(u, prob):
    """int(6|du|^2 + 12 u^2) dV / (int u^4 dV)^(1/2) on the unit round S^4.

    ``prob`` is the round problem with Phi = 12 that u lives on, built once by
    callers of many factors.

    Equals 8 sqrt(6) pi at constants (and along the conformal-factor
    family of round metrics); larger for everything else, up to O(h^2).
    """
    vals = as_values(u, prob.rho)
    if not np.all(vals > 0):
        raise ValueError("conformal factor must be positive")
    num = TWO_PI_SQ * prob.quadratic_form(vals)
    return float(num / np.sqrt(TWO_PI_SQ * np.sum(vals ** 4 * prob.weight)))


def cosine_yamabe_quotients(coeffs, prob):
    """``yamabe_quotient`` of the factor of each row c of ``coeffs``, as ``covariance_check``
    reads it: sqrt(2 pi^2) c^T G c / ((c x c)^T K (c x c))^(1/2), with G and K, the
    quadratic and quartic moments of 1 and the cos(k rho), built once."""
    c, modes = _cosine_rows(coeffs, prob.rho)
    modes = np.vstack([np.ones_like(prob.rho), modes])
    slopes, pairs = np.diff(modes), (modes[:, None] * modes).reshape(-1, len(prob.rho))
    gram = ((slopes * (prob.cond[1:-1] / prob.h)) @ slopes.T
            + (modes * (prob.phi * prob.weight)) @ modes.T)
    pairs *= np.sqrt(prob.weight)           # in place: each n-long temporary is a fresh allocation
    cc = (c[:, :, None] * c[:, None]).reshape(len(c), -1)
    return np.sqrt(TWO_PI_SQ) * np.einsum('fi,ij,fj->f', c, gram, c) / np.sqrt(
        np.einsum('fi,ij,fj->f', cc, pairs @ pairs.T, cc))


def dilation_factor(lam):
    """Conformal factor of the pullback of the round metric by x -> lam x.

    u(rho) = lam (1 + t^2) / (1 + lam^2 t^2), t = tan(rho/2); the Yamabe
    quotient is constant (= 8 sqrt(6) pi) along this family.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"dilation factor must be positive and finite; got {lam!r}")

    def u(rho):
        t2 = np.tan(0.5 * np.asarray(rho)) ** 2
        return lam * (1.0 + t2) / (1.0 + lam ** 2 * t2)

    return u
