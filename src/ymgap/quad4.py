"""Integration over R^4 of radially dominated integrands.

``integrate_r4`` is the one integrator. Its radii are composite
Gauss-Legendre panels on [0, R_max] with geometrically graded panel edges.
On each sphere it applies a ``SphereRule``: the tensor-product rule on S^3
(Gauss-Legendre in the two polar angles, uniform in the azimuth), or
``RAY``, one node that is exact for integrands radial about the origin.
Beyond R_max the integrand is taken to decay like r^-8, the curvature
density's decay, so the tail is one more radius at R_max and every
integral includes it. Sums run in a fixed order, so results are
reproducible run to run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import instanton, liealg

TWO_PI_SQ = 2.0 * np.pi ** 2
EPI2_16 = 16.0 * np.pi ** 2


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
    def make(cls, rmax=1000.0, panels=24, order=24):
        """Geometrically graded panels accumulate near the origin where the
        instanton profile varies; accuracy is spectral per panel. The first
        panel is [0, 0.25]."""
        if panels < 2 or order < 2:
            raise ValueError("need at least two panels (one ends at 0.25) and order >= 2")
        edges = np.concatenate([[0.0], np.geomspace(0.25, rmax, panels)])
        xs, ws = leggauss(order)
        nodes = []
        weights = []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (xs + 1.0) * (b - a) + a)
            weights.append(0.5 * (b - a) * ws)
        return cls(np.concatenate(nodes), np.concatenate(weights), float(rmax))


@dataclass(frozen=True)
class SphereRule:
    """Tensor quadrature on the unit S^3; weights sum to 2 pi^2."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def make(cls, n=24):
        xps, wps = leggauss(n)
        psi = 0.5 * (xps + 1.0) * np.pi
        wpsi = 0.5 * np.pi * wps * np.sin(psi) ** 2
        xth, wth = leggauss(n)
        theta = 0.5 * (xth + 1.0) * np.pi
        wtheta = 0.5 * np.pi * wth * np.sin(theta)
        m = 2 * n
        phi = np.arange(m) * 2.0 * np.pi / m
        wphi = np.full(m, 2.0 * np.pi / m)
        cp, sp = np.cos(psi), np.sin(psi)
        ct, st = np.cos(theta), np.sin(theta)
        # coordinate-major storage: points is the (N, 4) transpose of a
        # contiguous (4, N) array, so per-coordinate arithmetic runs over
        # contiguous memory instead of rows of four
        pts = np.empty((4, n, n, m))
        pts[0] = cp[:, None, None]
        pts[1] = (sp[:, None] * ct[None, :])[..., None]
        pts[2] = sp[:, None, None] * st[None, :, None] * np.cos(phi)
        pts[3] = sp[:, None, None] * st[None, :, None] * np.sin(phi)
        w = wpsi[:, None, None] * wtheta[None, :, None] * wphi
        return cls(pts.reshape(4, -1).T, w.reshape(-1))


#: one node carrying the whole of S^3: exact for integrands radial about
#: the origin of the integral
RAY = SphereRule(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([TWO_PI_SQ]))

#: points per integrand call: every radius of RAY in one call, one sphere
#: of the 27 648-point rule per call
_MAX_POINTS = 32768


def integrate_r4(f, grid, rule, origin=(0.0, 0.0, 0.0, 0.0)):
    """Integral of f over R^4 with radius measured from ``origin``.

    f must accept a (B, N, 4) array of points, B radii times the N points
    of ``rule``, and return (B, N) values. The points go through one buffer
    reused for every block of radii, so f must not keep it. The integrand
    is taken to decay like r^-8 beyond ``grid.rmax``, so the tail
    int_rmax^inf r^3 (rmax/r)^8 dr = rmax^4/4 is one more radius at rmax.
    """
    origin = np.asarray(origin, dtype=float)
    radii = np.append(grid.nodes, grid.rmax)
    mass = np.append(grid.weights * grid.nodes ** 3, grid.rmax ** 4 / 4.0)
    n = len(rule.weights)
    block = max(1, _MAX_POINTS // n)
    # coordinate-major, like rule.points
    buf = np.moveaxis(np.empty((4, min(block, len(radii)), n)), 0, -1)
    total = 0.0
    for start in range(0, len(radii), block):
        r = radii[start:start + block]
        x = buf[:len(r)]
        np.multiply(r[:, None, None], rule.points, out=x)
        x += origin
        vals = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand sample at r = {r[np.any(bad, axis=-1)][0]}")
        total += float(np.dot(mass[start:start + block], vals @ rule.weights))
    return total


def ym_energy(p, grid=None, rule=None, about=None):
    """Total energy int |F|^2 over R^4; 16 pi^2 for every family member.

    Default path: the ``RAY`` rule about the instanton center, where the
    norm of every curvature part is radial for this family, with |F|^2
    evaluated from the curvature matrices. With ``rule`` (and optionally
    ``about``) the integral is done by that sphere rule with the norm law as
    integrand, exercising conformal invariance nontrivially when the grid
    is not centered on the instanton.
    """
    grid = grid or RadialGrid.make()
    if rule is None:
        return integrate_r4(lambda x: liealg.lv_norm_sq(instanton.curvature_closed_at(p, x)),
                            grid, RAY, p.center_array)
    origin = p.center_array if about is None else about
    return integrate_r4(lambda x: instanton.curvature_norm_sq(p, x), grid, rule, origin)


def l2_sd_norms(p, grid=None):
    """(‖F+‖_L2, ‖F-‖_L2) by the ``RAY`` rule about the instanton center;
    the squares sum to the energy on the same grid."""
    grid = grid or RadialGrid.make()

    def part_sq(k):
        return lambda x: liealg.lv_norm_sq(
            liealg.lv_sd_project(instanton.curvature_closed_at(p, x))[k])

    plus_sq, minus_sq = (integrate_r4(part_sq(k), grid, RAY, p.center_array) for k in (0, 1))
    return float(np.sqrt(plus_sq)), float(np.sqrt(minus_sq))


def chern_weil_kappa(p, grid=None, reverse_orientation=False):
    """(int |F-|^2 - int |F+|^2) / (16 pi^2).

    Equals -1 for this family under the package orientation (the sign is
    orientation-bound; downstream bounds use |kappa|). Swapping the roles
    of the two parts models the reversed orientation.
    """
    plus, minus = l2_sd_norms(p, grid)
    if reverse_orientation:
        plus, minus = minus, plus
    return (minus ** 2 - plus ** 2) / EPI2_16


def flat_energy(grid=None):
    """Energy of the flat connection (identically zero curvature)."""
    return integrate_r4(lambda x: np.zeros(x.shape[:-1]), grid or RadialGrid.make(), RAY)


def energy_convergence_table(p, panel_counts, rmax=1000.0):
    """Energy vs panel count, for grid-refinement audits."""
    rows = []
    prev = None
    for panels in panel_counts:
        grid = RadialGrid.make(rmax=rmax, panels=panels)
        e = ym_energy(p, grid)
        rows.append({
            'panels': panels,
            'energy': e,
            'delta_prev': None if prev is None else e - prev,
            'rel_err_16pi2': (e - EPI2_16) / EPI2_16,
        })
        prev = e
    return rows


def write_table_csv(path, rows):
    if not rows:
        raise ValueError("no rows to write")
    with open(path, 'w', newline='') as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
