"""Integration over R^4 of radially dominated integrands.

``integrate_r4`` is the one integrator. Its radii are composite
Gauss-Legendre panels on [0, R_max] with geometrically graded panel edges.
On each sphere it applies one ``SphereRule``, a zonal rule: n nodes that
are exact for polynomials of degree 2n - 1 in the cosine of the angle to
one axis. The energy integrals take it about the offset of the center, one
node at zero offset; the L2 norms of the curvature parts take the one-node
rule, which is exact for integrands radial about the center.
Beyond R_max the integrand is taken to decay like r^-8, the curvature
density's decay, so the tail is the grid's last node, at R_max, and every
integral includes it. An integrand may return a stack of integrands'
values, which are integrated together. Sums run in a fixed order, so
results are reproducible run to run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import instanton, liealg

EPI2_16 = 16.0 * np.pi ** 2

#: the 24-node Gauss-Legendre rule on [-1, 1] of every radial panel
_GL_NODES, _GL_WEIGHTS = leggauss(24)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class RadialGrid:
    """Nodes and masses of the rule int_0^inf r^3 g(r) dr = sum weights g(nodes)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def make(cls, scale=1.0, panels=None):
        """Geometrically graded panels of 24 nodes accumulate near the origin
        where the instanton profile varies; accuracy is spectral per panel.
        In the units of an instanton of that scale the first panel is
        [0, 0.25 min(1, scale)] and rmax is 1000 max(1, scale). The masses
        are the Gauss-Legendre weights times r^3. The last node is rmax,
        with mass int_rmax^inf r^3 (rmax/r)^8 dr = rmax^4/4: the integrand
        is taken to decay like r^-8 beyond rmax, a model that misses by
        3.9 (scale / rmax)^6 <= 3.9e-18. ``panels`` defaults to
        ``panel_count(scale)``; any other value than an integer >= 2, or a
        scale that ``instanton.InstantonParams`` refuses, raises ValueError."""
        scale = instanton.InstantonParams(scale).scale
        panels = panel_count(scale) if panels is None else panels
        if isinstance(panels, bool) or not isinstance(panels, numbers.Integral) or panels < 2:
            raise ValueError(f"panels must be an integer >= 2; got {panels!r}")
        rmax = 1000.0 * max(1.0, scale)
        edges = np.concatenate([[0.0], np.geomspace(0.25 * min(1.0, scale), rmax, panels)])
        a, h = edges[:-1, None], np.diff(edges)[:, None]
        nodes = (0.5 * (_GL_NODES + 1.0) * h + a).ravel()
        return cls(np.append(nodes, rmax),
                   np.append((0.5 * h * _GL_WEIGHTS).ravel() * nodes ** 3, rmax ** 4 / 4.0))


def panel_count(scale):
    """The grid rule: the least panel count whose edge ratio, from the first
    edge 0.25 min(1, scale) to rmax = 1000 max(1, scale), is at most
    4000^(1/23), the ratio of 24 panels on [0.25, 1000]. A scale that
    ``instanton.InstantonParams`` refuses raises ValueError."""
    scale = instanton.InstantonParams(scale).scale
    return 1 + int(np.ceil(23.0 * (np.log(4000.0 * max(scale, 1.0 / scale)) / np.log(4000.0))))


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
        polynomial in omega . e of degree 2n - 1. n must be an integer in
        [1, _MAX_POINTS] and e a 4-vector of norm 1 to 1e-12, or ValueError.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= _MAX_POINTS:
            raise ValueError(f"n must be an integer in [1, {_MAX_POINTS}]; got {n!r}")
        e = np.asarray(axis, dtype=float)
        if e.shape != (4,) or not abs(np.linalg.norm(e) - 1.0) <= 1e-12:
            raise ValueError(f"axis must be a finite unit 4-vector; got {axis!r}")
        perp = np.eye(4)[np.argmin(np.abs(e))]
        perp -= (perp @ e) * e
        perp /= np.linalg.norm(perp)
        psi = np.arange(1, n + 1) * np.pi / (n + 1)
        return cls(np.outer(np.cos(psi), e) + np.outer(np.sin(psi), perp),
                   4.0 * np.pi ** 2 / (n + 1) * np.sin(psi) ** 2)


#: the most nodes of a zonal rule
_MAX_POINTS = 32768

#: a zonal rule of order n resolves a sphere when (2n)^3 rho^-2n <= 1e-16
_LOG_TOL = float(np.log(1e16))


def integrate_r4(f, grid, rule):
    """Integral over R^4, in polar coordinates r omega, of f.

    f(r, omega) takes the B radii of ``grid`` as a (B, 1) array and the N
    unit points of ``rule`` as an (N, 4) array, and returns the (B, N)
    values at the points r omega, or a stack (..., B, N) of several
    integrands' values. An integrand about a point c evaluates there at
    c + r[..., None] * omega. f is called once, on all ``len(grid.nodes)``
    radii, the tail node included. Returns the integral, a float, or the
    (...) array of the stacked integrals.
    """
    vals = np.asarray(f(grid.nodes[:, None], rule.points), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        r = grid.nodes[np.argwhere(bad)[0, -2]]
        raise ValueError(f"non-finite integrand sample at r = {r}")
    total = vals @ rule.weights @ grid.weights
    return float(total) if total.ndim == 0 else total


def ym_energy(p, grid=None, about=None):
    """Total energy int |F|^2 over R^4; 16 pi^2 for every family member.

    The integral is taken about ``about``, by default the instanton center,
    by a zonal rule with the norm law as integrand, exercising conformal
    invariance nontrivially when ``about`` is not the instanton center.
    There |x - center|^2 is s = r^2 + d^2 - 2 r (omega . e),
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
    scale); a farther center, or a non-finite ``about``, raises ``ValueError``.
    """
    grid = grid or RadialGrid.make(scale=p.scale)
    e = p.center_array - np.asarray(p.center if about is None else about, dtype=float)
    d2 = float(e @ e)
    d = np.sqrt(d2)
    if not d <= 10.0 * p.scale:
        raise ValueError(f"the center is {d / p.scale:g} scales from about; the grid resolves 10")
    axis, log_rho = (e / d, np.arcsinh(p.scale / d)) if d else (np.eye(4)[1], np.inf)
    n = next(n for n in range(1, _MAX_POINTS + 1)
             if 2 * n * log_rho >= 3 * np.log(2 * n) + _LOG_TOL)
    return integrate_r4(lambda r, w: instanton.norm_law(p, r * r + d2 - 2.0 * r * (w @ e)),
                        grid, SphereRule.zonal(axis, n))


def l2_sd_norms(p, grid=None):
    """(‖F+‖_L2, ‖F-‖_L2) by the one-node rule ``ym_energy`` takes about the
    center, whose node is e1 up to cos(pi/2) e2; the squares sum to the
    energy on the same grid."""
    grid = grid or RadialGrid.make(scale=p.scale)

    def parts_sq(r, w):
        f = instanton.curvature_closed_at(p, p.center_array + r[..., None] * w)
        sd = liealg.lv_self_dual(f)
        return np.stack([liealg.lv_norm_sq(sd), liealg.lv_norm_sq(f - sd)])

    plus, minus = np.sqrt(integrate_r4(parts_sq, grid, SphereRule.zonal(np.eye(4)[1], 1)))
    return float(plus), float(minus)


def chern_weil_kappa(plus, minus):
    """(‖F-‖^2 - ‖F+‖^2) / (16 pi^2) from the two L2 norms of ``l2_sd_norms``.

    Equals -1 for this family under the package orientation. The sign is
    orientation-bound: the reversed orientation swaps F+ and F- and so
    negates kappa. Downstream bounds use |kappa|.
    """
    return (minus ** 2 - plus ** 2) / EPI2_16


def energy_convergence_table(p, panel_counts):
    """Energy vs panel count on grids for the scale of ``p``, for
    grid-refinement audits."""
    rows = []
    prev = None
    for panels in panel_counts:
        e = ym_energy(p, RadialGrid.make(scale=p.scale, panels=panels))
        rows.append({'panels': panels, 'energy': e,
                     'delta_prev': None if prev is None else e - prev,
                     'rel_err_16pi2': (e - EPI2_16) / EPI2_16})
        prev = e
    return rows
