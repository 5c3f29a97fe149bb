"""Integration over R^4 of radially dominated integrands.

``integrate_r4`` is the one integrator. Its radii are composite
Gauss-Legendre panels on [0, R_max] with geometrically graded panel edges.
On each sphere it applies one ``SphereRule``: ``RAY``, one node that is
exact for integrands radial about the origin, or a zonal rule, n nodes that
are exact for polynomials of degree 2n - 1 in the cosine of the angle to
one axis. The off-center energy integrals take the zonal rule about the
offset of the center.
Beyond R_max the integrand is taken to decay like r^-8, the curvature
density's decay, so the tail is one more radius at R_max and every
integral includes it. Sums run in a fixed order, so results are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import instanton, liealg

TWO_PI_SQ = 2.0 * np.pi ** 2
EPI2_16 = 16.0 * np.pi ** 2
#: largest rmax: beyond it the norm law's (scale^2 + s)^4 overflows at the tail
RMAX_LIMIT = 1e38


@dataclass(frozen=True)
class RadialGrid:
    """Gauss-Legendre nodes/weights for integrals int_0^rmax f(r) dr."""

    nodes: np.ndarray
    weights: np.ndarray
    rmax: float

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def make(cls, rmax=1000.0, scale=1.0, panels=None, order=24):
        """Geometrically graded panels accumulate near the origin where the
        instanton profile varies; accuracy is spectral per panel. The first
        panel is [0, 0.25 min(1, scale)], in the units of an instanton of
        that scale; ``panels`` defaults to ``panel_count(rmax, scale)``."""
        if not 0.25 < rmax <= RMAX_LIMIT:
            raise ValueError(f"rmax must exceed 0.25 and be at most {RMAX_LIMIT:g}, beyond which "
                             f"the norm law overflows; got {rmax!r}")
        panels = panel_count(rmax, scale) if panels is None else panels
        if panels < 2 or order < 2:
            raise ValueError("need at least two panels and order >= 2")
        edges = np.concatenate([[0.0], np.geomspace(0.25 * min(1.0, scale), rmax, panels)])
        a, h = edges[:-1, None], np.diff(edges)[:, None]
        xs, ws = leggauss(order)
        return cls((0.5 * (xs + 1.0) * h + a).ravel(), (0.5 * h * ws).ravel(), float(rmax))


def panel_count(rmax, scale=1.0):
    """The grid rule: the least panel count whose edge ratio
    (rmax / a)^(1 / (panels - 1)), a = 0.25 min(1, scale) the first edge, is
    at most 4000^(1/23), the ratio of 24 panels on [0.25, 1000]."""
    return 1 + int(np.ceil(23.0 * (np.log(rmax / (0.25 * min(1.0, scale))) / np.log(4000.0))))


@dataclass(frozen=True)
class SphereRule:
    """Quadrature on the unit S^3: unit points and weights that sum to 2 pi^2."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def zonal(cls, axis, n):
        """n nodes cos psi_k e + sin psi_k e', psi_k = k pi / (n + 1), about
        the unit axis e (e' is a unit vector orthogonal to it), with weights
        4 pi * pi / (n + 1) sin^2 psi_k. Since the integral over S^3 of
        g(omega . e) is 4 pi int_0^pi g(cos psi) sin^2 psi dpsi, this is
        Gauss-Chebyshev of the second kind in cos psi: exact for every
        polynomial in omega . e of degree 2n - 1.
        """
        if not 1 <= n <= _MAX_POINTS:
            raise ValueError(f"a zonal rule has 1 to {_MAX_POINTS} nodes; got {n}")
        e = np.asarray(axis, dtype=float)
        perp = np.eye(4)[np.argmin(np.abs(e))]
        perp -= (perp @ e) * e
        perp /= np.linalg.norm(perp)
        psi = np.arange(1, n + 1) * np.pi / (n + 1)
        return cls(np.outer(np.cos(psi), e) + np.outer(np.sin(psi), perp),
                   4.0 * np.pi ** 2 / (n + 1) * np.sin(psi) ** 2)


#: one node carrying the whole of S^3: exact for integrands radial about
#: the origin of the integral
RAY = SphereRule(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([TWO_PI_SQ]))

#: values per integrand call, and the most nodes of a zonal rule
_MAX_POINTS = 32768

#: a zonal rule of order n resolves a sphere when (2n)^3 rho^-2n <= 1e-16
_LOG_TOL = float(np.log(1e16))


def integrate_r4(f, grid, rule):
    """Integral over R^4, in polar coordinates r omega, of f.

    f(r, omega) takes B radii as a (B, 1) array and the N unit points of
    ``rule`` as an (N, 4) array, and returns the (B, N) values at the
    points r omega. An integrand about a point c evaluates there at
    c + r[..., None] * omega. The integrand is taken to decay like r^-8
    beyond ``grid.rmax``, so the tail int_rmax^inf r^3 (rmax/r)^8 dr =
    rmax^4/4 is one more radius at rmax. Each call of f takes at most
    ``_MAX_POINTS`` values, or one sphere.
    """
    radii = np.append(grid.nodes, grid.rmax)
    mass = np.append(grid.weights * grid.nodes ** 3, grid.rmax ** 4 / 4.0)
    step = max(1, _MAX_POINTS // len(rule.weights))
    total = 0.0
    for s in range(0, len(radii), step):
        r = radii[s:s + step, None]
        vals = np.asarray(f(r, rule.points), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand sample at r = {r[bad.any(-1)][0, 0]}")
        total += float(np.dot(mass[s:s + len(r)], vals @ rule.weights))
    return total


def ym_energy(p, grid=None, about=None):
    """Total energy int |F|^2 over R^4; 16 pi^2 for every family member.

    Default path: the ``RAY`` rule about the instanton center, where the
    norm of every curvature part is radial for this family, with |F|^2
    evaluated from the curvature matrices. With ``about`` the integral is
    taken about that point by a zonal rule with the norm law as integrand,
    exercising conformal invariance nontrivially when ``about`` is not the
    instanton center. There |x - center|^2 is s = r^2 + d^2 - 2 r (omega . e),
    e = center - about, d = |e|: its rounding is small against scale^2 + s.

    The integrand is zonal about e: on the sphere of radius r it is
    (1 - q t)^-4 in t = cos(angle to e), with
    q = 2 r d / (scale^2 + r^2 + d^2) < 1. Its zonal harmonic coefficients
    decay like k^3 rho^-k, rho = (1 + sqrt(1 - q^2))/q, and the zonal rule
    of order n is exact to degree 2n - 1. One rule serves every sphere: rho
    is least at r^2 = scale^2 + d^2, where log rho = asinh(scale / d), and n
    is the least order with (2n)^3 rho^-2n <= 1e-16 there. At d = 0 the
    integrand is constant on every sphere and n = 1. The radial panels are
    graded from ``about``, so they resolve the bump of width scale at radius
    d only up to d = 10 scale (n = 280; within 1e-9 on the grid for that
    scale); a farther center raises ``ValueError``.
    """
    grid = grid or RadialGrid.make(scale=p.scale)
    if about is None:
        return integrate_r4(lambda r, w: liealg.lv_norm_sq(instanton.curvature_closed_at(
            p, p.center_array + r[..., None] * w)), grid, RAY)
    e = p.center_array - np.asarray(about, dtype=float)
    d2 = float(e @ e)
    d = np.sqrt(d2)
    if d > 10.0 * p.scale:
        raise ValueError(f"the center is {d / p.scale:g} scales from about; the grid resolves 10")
    axis, log_rho = (e / d, np.arcsinh(p.scale / d)) if d else (np.eye(4)[0], np.inf)
    n = next(n for n in range(1, _MAX_POINTS + 1)
             if 2 * n * log_rho >= 3 * np.log(2 * n) + _LOG_TOL)
    return integrate_r4(lambda r, w: instanton.norm_law(p, r * r + d2 - 2.0 * r * (w @ e)),
                        grid, SphereRule.zonal(axis, n))


def l2_sd_norms(p, grid=None):
    """(‖F+‖_L2, ‖F-‖_L2) by the ``RAY`` rule about the instanton center;
    the squares sum to the energy on the same grid."""
    grid = grid or RadialGrid.make(scale=p.scale)

    def plus_sq(r, w):
        return liealg.lv_norm_sq(liealg.lv_self_dual(
            instanton.curvature_closed_at(p, p.center_array + r[..., None] * w)))

    def minus_sq(r, w):
        f = instanton.curvature_closed_at(p, p.center_array + r[..., None] * w)
        return liealg.lv_norm_sq(f - liealg.lv_self_dual(f))

    plus, minus = (integrate_r4(part, grid, RAY) for part in (plus_sq, minus_sq))
    return float(np.sqrt(plus)), float(np.sqrt(minus))


def chern_weil_kappa(plus, minus):
    """(‖F-‖^2 - ‖F+‖^2) / (16 pi^2) from the two L2 norms of ``l2_sd_norms``.

    Equals -1 for this family under the package orientation. The sign is
    orientation-bound: the reversed orientation swaps F+ and F- and so
    negates kappa. Downstream bounds use |kappa|.
    """
    return (minus ** 2 - plus ** 2) / EPI2_16


def energy_convergence_table(p, panel_counts, rmax=1000.0):
    """Energy vs panel count on grids for the scale of ``p``, for
    grid-refinement audits."""
    rows = []
    prev = None
    for panels in panel_counts:
        e = ym_energy(p, RadialGrid.make(rmax=rmax, scale=p.scale, panels=panels))
        rows.append({'panels': panels, 'energy': e,
                     'delta_prev': None if prev is None else e - prev,
                     'rel_err_16pi2': (e - EPI2_16) / EPI2_16})
        prev = e
    return rows
