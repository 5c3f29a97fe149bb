"""Integration over R^4 of radially dominated integrands.

``integrate_r4`` is the one integrator. Its radii are composite
Gauss-Legendre panels on [0, R_max] with geometrically graded panel edges.
On each sphere it applies a ``SphereRule``: the tensor-product rule on S^3
(Gauss-Legendre in the two polar angles, uniform in the azimuth), or
``RAY``, one node that is exact for integrands radial about the origin.
A caller may grade the rule by radius: the off-center energy integrals take
on each sphere the lowest order that resolves the integrand there.
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
#: largest rmax: on 24 panels every energy check keeps >= 100x headroom up
#: to about 2e23; from about 1e30 the panels no longer resolve the profile
RMAX_LIMIT = 1e20


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
        if not 0.25 < rmax <= RMAX_LIMIT:
            raise ValueError(f"rmax must exceed 0.25, where the first panel ends, and be at "
                             f"most {RMAX_LIMIT:g}; got {rmax!r}")
        edges = np.concatenate([[0.0], np.geomspace(0.25, rmax, panels)])
        a, h = edges[:-1, None], np.diff(edges)[:, None]
        xs, ws = leggauss(order)
        return cls((0.5 * (xs + 1.0) * h + a).ravel(), (0.5 * h * ws).ravel(), float(rmax))


@dataclass(frozen=True)
class SphereRule:
    """Tensor quadrature on the unit S^3; weights sum to 2 pi^2."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def make(cls, n=24):
        # the polar angles psi and theta share the Gauss-Legendre nodes
        xs, ws = leggauss(n)
        psi = 0.5 * (xs + 1.0) * np.pi
        wpsi = 0.5 * np.pi * ws * np.sin(psi) ** 2
        wtheta = 0.5 * np.pi * ws * np.sin(psi)
        m = 2 * n
        phi = np.arange(m) * 2.0 * np.pi / m
        wphi = np.full(m, 2.0 * np.pi / m)
        cp, sp = ct, st = np.cos(psi), np.sin(psi)
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

#: order n resolves a sphere when (2 * 24)^3 rho^-2n <= 1e-16
_LOG_RATIO = float(np.log(48.0 ** 3 * 1e16))


def integrate_r4(f, grid, rule, origin=(0.0, 0.0, 0.0, 0.0), coarser=None):
    """Integral of f over R^4 with radius measured from ``origin``.

    f must accept a (B, N, 4) array of points, B radii times the N points
    of one sphere rule, and return (B, N) values. The points go through one
    buffer reused for every block of radii, so f must not keep it. The
    integrand is taken to decay like r^-8 beyond ``grid.rmax``, so the tail
    int_rmax^inf r^3 (rmax/r)^8 dr = rmax^4/4 is one more radius at rmax.

    Every sphere uses ``rule`` unless ``coarser`` is given: it maps the
    radii (the grid nodes, then the tail radius) to one entry per radius,
    the rule for that sphere or None for ``rule``.
    """
    origin = np.asarray(origin, dtype=float)
    radii = np.append(grid.nodes, grid.rmax)
    mass = np.append(grid.weights * grid.nodes ** 3, grid.rmax ** 4 / 4.0)
    rules = [rule] * len(radii) if coarser is None else [
        rule if c is None else c for c in coarser(radii)]
    # blocks of consecutive radii on one rule, at most _MAX_POINTS points each
    edges = [0] + [i for i in range(1, len(radii)) if rules[i] is not rules[i - 1]] + [len(radii)]
    blocks = []
    for a, b in zip(edges[:-1], edges[1:]):
        step = max(1, _MAX_POINTS // len(rules[a].weights))
        blocks += [(s, min(s + step, b), rules[a]) for s in range(a, b, step)]
    buf = np.empty(4 * max((b - a) * len(rl.weights) for a, b, rl in blocks))
    total = 0.0
    for a, b, rl in blocks:
        r = radii[a:b]
        # coordinate-major, like rl.points
        x = np.moveaxis(buf[:4 * (b - a) * len(rl.weights)].reshape(4, b - a, -1), 0, -1)
        np.multiply(r[:, None, None], rl.points, out=x)
        x += origin
        vals = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand sample at r = {r[np.any(bad, axis=-1)][0]}")
        total += float(np.dot(mass[a:b], vals @ rl.weights))
    return total


def ym_energy(p, grid=None, about=None):
    """Total energy int |F|^2 over R^4; 16 pi^2 for every family member.

    Default path: the ``RAY`` rule about the instanton center, where the
    norm of every curvature part is radial for this family, with |F|^2
    evaluated from the curvature matrices. With ``about`` the integral is
    taken about that point by sphere rules with the norm law as integrand,
    exercising conformal invariance nontrivially when ``about`` is not the
    instanton center.

    The angular order is graded by radius. On the sphere of radius r the
    integrand is (1 - q t)^-4 in t = cos(angle to center - about), with
    q = 2 r d / (scale^2 + r^2 + d^2) < 1 and d = |center - about|. Its
    harmonic coefficients decay like k^3 rho^-k, rho = (1 + sqrt(1 - q^2))/q,
    and order n is exact to degree 2n - 1: each sphere takes the least n in
    (8, 16, 24) with (2 * 24)^3 rho^-2n <= 1e-16, else 24.
    """
    grid = grid or RadialGrid.make()
    if about is None:
        return integrate_r4(lambda x: liealg.lv_norm_sq(instanton.curvature_closed_at(p, x)),
                            grid, RAY, p.center_array)
    d = float(np.linalg.norm(p.center_array - np.asarray(about, dtype=float)))
    coarser = {n: SphereRule.make(n) for n in (8, 16)}

    def graded(radii):
        q = 2.0 * radii * d / (p.scale ** 2 + radii ** 2 + d ** 2)
        with np.errstate(divide='ignore'):
            log_rho = np.log((1.0 + np.sqrt(1.0 - q ** 2)) / q)
        return [next((coarser[n] for n in coarser if 2 * n * lr >= _LOG_RATIO), None)
                for lr in log_rho]

    return integrate_r4(lambda x: instanton.curvature_norm_sq(p, x), grid,
                        SphereRule.make(24), about, graded)


def l2_sd_norms(p, grid=None):
    """(‖F+‖_L2, ‖F-‖_L2) by the ``RAY`` rule about the instanton center;
    the squares sum to the energy on the same grid."""
    grid = grid or RadialGrid.make()

    def plus_sq(x):
        return liealg.lv_norm_sq(liealg.lv_self_dual(instanton.curvature_closed_at(p, x)))

    def minus_sq(x):
        f = instanton.curvature_closed_at(p, x)
        return liealg.lv_norm_sq(f - liealg.lv_self_dual(f))

    plus, minus = (integrate_r4(part, grid, RAY, p.center_array) for part in (plus_sq, minus_sq))
    return float(np.sqrt(plus)), float(np.sqrt(minus))


def chern_weil_kappa(plus, minus):
    """(‖F-‖^2 - ‖F+‖^2) / (16 pi^2) from the two L2 norms of ``l2_sd_norms``.

    Equals -1 for this family under the package orientation. The sign is
    orientation-bound: the reversed orientation swaps F+ and F- and so
    negates kappa. Downstream bounds use |kappa|.
    """
    return (minus ** 2 - plus ** 2) / EPI2_16


def energy_convergence_table(p, panel_counts, rmax=1000.0):
    """Energy vs panel count, for grid-refinement audits."""
    rows = []
    prev = None
    for panels in panel_counts:
        e = ym_energy(p, RadialGrid.make(rmax=rmax, panels=panels))
        rows.append({'panels': panels, 'energy': e,
                     'delta_prev': None if prev is None else e - prev,
                     'rel_err_16pi2': (e - EPI2_16) / EPI2_16})
        prev = e
    return rows


def write_table_csv(path, rows):
    if not rows:
        raise ValueError("no rows to write")
    with open(path, 'w', newline='') as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
