"""Integration over R^4 of radially dominated integrands.

Radial integrals use composite Gauss-Legendre panels on [0, R_max] with
geometrically graded panel edges; angular integrals use a tensor-product
rule on S^3 (Gauss-Legendre in the two polar angles, uniform in the
azimuth). Summation is plain np.sum (pairwise, fixed order), so results
are reproducible run to run.

The truncation tail for (1+r^2)^-4-decay integrands at the default
R_max = 1000 is below 1e-10 in absolute value; ``tail_estimate`` gives an
r^-8-model correction that ``ym_energy`` adds by default.
"""

from __future__ import annotations

import csv
import warnings
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
    def make(cls, rmax=1000.0, panels=24, order=24, inner=0.25):
        """Geometrically graded panels accumulate near the origin where the
        instanton profile varies; accuracy is spectral per panel."""
        if panels < 2 or order < 2:
            raise ValueError("need at least two panels (one ends at inner) and order >= 2")
        edges = np.concatenate([[0.0], np.geomspace(inner, rmax, panels)])
        xs, ws = leggauss(order)
        nodes = []
        weights = []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (xs + 1.0) * (b - a) + a)
            weights.append(0.5 * (b - a) * ws)
        return cls(np.concatenate(nodes), np.concatenate(weights), float(rmax))

    def tail_estimate(self, f):
        """Estimated truncated mass 2 pi^2 int_rmax^inf f r^3 dr, assuming
        f ~ C r^-8 beyond rmax (the curvature-density decay)."""
        frm = float(f(np.asarray([self.rmax]))[0])
        return TWO_PI_SQ * frm * self.rmax ** 4 / 4.0


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


def integrate_r4_radial(f, grid):
    """2 pi^2 int_0^rmax f(r) r^3 dr for a vectorized radial profile f."""
    vals = np.asarray(f(grid.nodes), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        r = grid.nodes[bad][0]
        raise ValueError(f"non-finite integrand sample at r = {r}")
    return TWO_PI_SQ * float(np.sum(grid.weights * grid.nodes ** 3 * vals))


def integrate_r4(f, grid, rule, origin=(0.0, 0.0, 0.0, 0.0)):
    """Full integral of f over R^4 with radius measured from ``origin``.

    f must accept an (N, 4) array of points and return (N,) values; the
    radial loop keeps the working set small. The points of one sphere go
    through a buffer reused for every radius, so f must not keep it.
    """
    origin = np.asarray(origin, dtype=float)
    x = np.empty_like(rule.points)
    total = 0.0
    for r, w in zip(grid.nodes, grid.weights):
        np.multiply(rule.points, r, out=x)
        x += origin
        vals = np.asarray(f(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite integrand sample at r = {r}")
        total += w * r ** 3 * float(np.dot(rule.weights, vals))
    return total


def _curvature_profile(p, grid):
    """Curvature samples along a ray from the instanton center.

    The pointwise norm of every curvature part is radial about the center
    for this family, so one ray determines the profiles.
    """
    ray = np.zeros((len(grid.nodes), 4))
    ray[:, 0] = grid.nodes
    return instanton.curvature_closed_at(p, p.center_array + ray)


def ym_energy(p, grid=None, rule=None, about=None, tail=True, tail_warn=1e-8):
    """Total energy int |F|^2 over R^4; 16 pi^2 for every family member.

    Default path: radial quadrature about the instanton center with |F|^2
    evaluated from the curvature matrices. With ``rule`` (and optionally
    ``about``) the integral is done by the full angular product rule with
    the norm law as integrand, exercising conformal invariance
    nontrivially when the grid is not centered on the instanton.
    """
    grid = grid or RadialGrid.make()
    if rule is None:
        fsq = liealg.lv_norm_sq(_curvature_profile(p, grid))
        if not np.all(np.isfinite(fsq)):
            raise ValueError("non-finite curvature sample")
        value = TWO_PI_SQ * float(np.sum(grid.weights * grid.nodes ** 3 * fsq))
        tail_mass = grid.tail_estimate(lambda r: curvature_norm_sq_shifted(p, r, p.center_array))
    else:
        origin = p.center_array if about is None else np.asarray(about, dtype=float)
        value = integrate_r4(lambda x: instanton.curvature_norm_sq(p, x), grid, rule, origin)
        tail_mass = grid.tail_estimate(lambda r: curvature_norm_sq_shifted(p, r, origin))
    if tail:
        value += tail_mass
    elif tail_mass > tail_warn * max(abs(value), 1.0):
        warnings.warn(f"truncation tail estimate {tail_mass:.2e} exceeds "
                      f"{tail_warn:.0e} of the integral", stacklevel=2)
    return value


def curvature_norm_sq_shifted(p, r, origin):
    """|F|^2 on the sphere of radius r about origin, worst-case direction.

    Used only for tail estimates; takes the direction minimizing the
    distance to the instanton center (largest integrand).
    """
    r = np.asarray(r, dtype=float)
    origin = np.asarray(origin, dtype=float)
    dist = np.abs(r - np.linalg.norm(origin - p.center_array))
    return 96.0 * p.scale ** 4 / (p.scale ** 2 + dist ** 2) ** 4


def l2_sd_norms(p, grid=None):
    """(‖F+‖_L2, ‖F-‖_L2); the squares sum to the energy on the same nodes."""
    grid = grid or RadialGrid.make()
    f = _curvature_profile(p, grid)
    plus, minus = liealg.lv_sd_project(f)
    wr3 = grid.weights * grid.nodes ** 3
    plus_sq = TWO_PI_SQ * float(np.sum(wr3 * liealg.lv_norm_sq(plus)))
    minus_sq = TWO_PI_SQ * float(np.sum(wr3 * liealg.lv_norm_sq(minus)))
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
    grid = grid or RadialGrid.make()
    return integrate_r4_radial(lambda r: np.zeros_like(r), grid)


def energy_convergence_table(p, panel_counts, rmax=1000.0, order=24):
    """Energy vs panel count, for grid-refinement audits."""
    rows = []
    prev = None
    for panels in panel_counts:
        grid = RadialGrid.make(rmax=rmax, panels=panels, order=order)
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
