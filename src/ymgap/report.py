"""Top-level verification suites and the gap-inequality evaluator.

The central object is the sharp bound

    Y([g]) <= 3 gamma1 ||F+||_L2 + 2 sqrt(6) ||W+||_L2

for a Yang-Mills connection with F+ not identically zero.
``gap_inequality`` compares the four numbers; ``gap_report`` compares
||F+|| of the configured instanton, for which the su(2) constant
gamma1 = 4/sqrt(6) makes the bound an exact equality. Suites take only a
``GapConfig``, the values the command line sets, and use seeded sampling,
so a fixed (config, seed) reproduces byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import conformal, forms4, instanton, liealg, quad4

SCHEMA = "ymgap-report/1"


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


@dataclass(frozen=True)
class GapConfig(instanton.InstantonParams):
    """The values the command line sets, and nothing else: the configured
    member of the instanton family, and the seed of the sampling suites."""

    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        object.__setattr__(self, 'seed', int(seed))    # JSON writes no numpy integer
        # the instanton checks the rest, non-finite values included
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class GapReport:
    """Both sides of the gap inequality plus a verdict.

    The left side is ``yamabe``. ``rhs`` is stored exactly as
    ``3*gamma1*f_plus_l2 + 2*sqrt(6)*w_plus_l2`` evaluates in floating point,
    so it is bit-recomputable from the fields.
    Verdicts: ``case-1`` (F+ vanishes), ``equality``, ``inequality-holds``,
    ``strict-gap-violated`` (the data cannot come from a Yang-Mills
    connection with F+ != 0).
    ``equality_residual`` is set by ``gap_report``, which has an instanton
    to measure; ``gap_inequality`` of bare numbers leaves it None.
    """

    yamabe: float
    gamma1: float
    f_plus_l2: float
    w_plus_l2: float
    rhs: float
    slack: float
    verdict: str
    equality_residual: float | None = None


def gap_inequality(f_plus_l2, gamma1, yamabe=conformal.YAMABE_S4, w_plus_l2=0.0):
    """Compare Y with 3 gamma1 ||F+|| + 2 sqrt(6) ||W+||; a relative slack
    below 1e-6 is the verdict ``equality``. The inputs are a caller's what-if
    values, so an invalid one raises ConfigError."""
    for name, value in (("f_plus_l2", f_plus_l2), ("gamma1", gamma1), ("yamabe", yamabe),
                        ("w_plus_l2", w_plus_l2)):
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if f_plus_l2 < 0 or w_plus_l2 < 0:
        raise ConfigError("||F+|| and ||W+|| must be nonnegative")
    if not yamabe > 0:
        raise ConfigError("the Yamabe invariant must be positive")
    if not 0.0 < gamma1 <= liealg.GAMMA1_MAX + 1e-12:
        raise ConfigError(f"gamma1 = {gamma1} outside (0, 4/sqrt(6)]")
    return _gap_verdict(f_plus_l2, gamma1, yamabe, w_plus_l2)


def _gap_verdict(f_plus_l2, gamma1, yamabe, w_plus_l2):
    """``gap_inequality`` unchecked, for the package's own constants: a
    defective one is then a failed check, not a configuration error."""
    rhs = 3.0 * gamma1 * f_plus_l2 + 2.0 * np.sqrt(6.0) * w_plus_l2
    slack = rhs - yamabe

    if f_plus_l2 < 1e-10:
        verdict = "case-1"
    elif abs(slack) < 1e-6 * yamabe:
        verdict = "equality"
    elif slack > 0:
        verdict = "inequality-holds"
    else:
        verdict = "strict-gap-violated"
    return GapReport(yamabe, gamma1, f_plus_l2, w_plus_l2, rhs, slack, verdict)


def gap_report(cfg):
    """The gap inequality for the configured instanton on the round S^4.

    The instanton is su(2)-valued, so gamma1 is the su(2) constant. The
    report also carries the residual of the pointwise identity behind the
    equality case, a property of the instanton whatever the L2 verdict."""
    f_plus, _ = quad4.l2_sd_norms(cfg)
    rep = _gap_verdict(f_plus, liealg.GAMMA1_SU2, conformal.YAMABE_S4, 0.0)
    rep.equality_residual = _equality_identity_residual(cfg, rep.gamma1)
    return rep


def _equality_identity_residual(p, gamma1):
    """Max |R - 3 gamma1 |F+|_round| over 64 sample points, round representative.

    The round-metric pointwise norm is u^-2 |F+|_flat with u = 2/(1+|x|^2)
    composed with the conformal motion taking ``p`` to standard.
    """
    rho = np.linspace(0.05, np.pi - 0.05, 64)
    r = np.tan(0.5 * rho)
    x = np.zeros((len(r), 4))
    x[:, 0] = r
    # pull the sample ray through the conformal motion pairing p with
    # the standard instanton; scale^2 undoes the curvature pullback factor
    xs = p.center_array + p.scale * x
    u = 2.0 / (1.0 + r ** 2)
    f_round = np.sqrt(instanton.curvature_norm_sq(p, xs)) * p.scale ** 2 / u ** 2
    return float(np.max(np.abs(conformal.ROUND_SCALAR_CURVATURE - 3.0 * gamma1 * f_round)))


@dataclass(frozen=True)
class Thresholds:
    general: float
    weak_universal: float


def corollary_thresholds(kappa_abs, yamabe, gamma1):
    """Energy thresholds below which a Yang-Mills connection is an instanton.

    general = 16 pi^2 |kappa| + 2 Y^2 / (9 gamma1^2); with the round S^4's
    Y = 8 sqrt(6) pi it is 16 pi^2 |kappa| + 32 pi^2 for su(2) and
    + 64 pi^2 for so(3). The weak universal bound replaces the gamma1 term
    by Y^2/12; it is never above general, as gamma1 <= 4/sqrt(6), and
    equals it at gamma1 = 4/sqrt(6)."""
    if not 0 <= kappa_abs < np.inf:
        raise ConfigError(f"|kappa| must be finite and nonnegative, got {kappa_abs!r}")
    if yamabe <= 0 or gamma1 <= 0:
        raise ConfigError("thresholds need Y > 0 and gamma1 > 0")
    floor = 16.0 * np.pi ** 2 * kappa_abs
    general = floor + 2.0 * yamabe ** 2 / (9.0 * gamma1 ** 2)
    weak = floor + yamabe ** 2 / 12.0
    if not np.all(np.isfinite([general, weak])):
        raise ConfigError(f"thresholds are not finite at |kappa| = {kappa_abs:g}, "
                          f"Y = {yamabe:g}, gamma1 = {gamma1:g}")
    return Thresholds(general, weak)


def flow_admissible(energy):
    """True iff the energy is strictly below 16 pi^2.

    Energies within a relative 1e-9 of the threshold count as at-threshold
    (not admissible): quadrature can land a borderline energy an ulp below
    16 pi^2. Admissibility implies the associated gradient flow
    exists for all time and converges (flat limit on the round S^4); that
    dynamic statement is reported, not simulated.
    """
    if not 0 <= energy < np.inf:
        raise ConfigError(f"energy must be finite and nonnegative, got {energy!r}")
    return energy < quad4.EPI2_16 * (1.0 - 1e-9)


# -- suites -------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass
class SuiteResult:
    suite: str
    checks: list
    passed: bool
    runtime: float = field(default=0.0, compare=False)
    sections: dict = field(default_factory=dict)   # top-level report entries

    def to_dict(self):
        return {'suite': self.suite, 'passed': self.passed,
                'checks': [asdict(c) for c in self.checks]}


def _check(name, residual, tolerance):
    residual = float(residual)
    return Check(name, bool(residual <= tolerance), residual, float(tolerance))


def _sample_points(rng, count, radius, min_radius=0.0):
    x = rng.standard_normal((count, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = min_radius + (radius - min_radius) * rng.random(count)
    return x * r[:, None]


# The pointwise suites work in the instanton's units: they sample at
# center + scale * y, step by h * scale and multiply each residual by scale
# to the power it scales with, so their tolerances hold for every member.

def _suite_kato(cfg):
    rng = np.random.default_rng(cfg.seed)
    pts = cfg.center_array + cfg.scale * _sample_points(rng, 1000, radius=3.0)
    c = cfg.connection
    worst = np.min(instanton.kato_residual_at(c, pts, h=1e-4 * cfg.scale))
    r1, r2 = (instanton.kato_residual_at(c, pts[:3], h=h * cfg.scale, richardson=False)
              for h in (2e-3, 1e-3))
    return ([_check("kato-floor-1000pts", -worst * cfg.scale ** 6, 1e-8)]
            + _order2_checks("kato-order2", r1, r2, cfg.scale)), {}


def _order2_checks(name, r1, r2, scale):
    """One check per point that the residual (~ scale^-6) decays at least
    quadratically from r1 at step h = 2e-3 scale to r2 at 1e-3 scale; the
    floor absorbs points where the h^2 error coefficient happens to cross zero."""
    r1, r2 = np.abs(r1) * scale ** 6, np.abs(r2) * scale ** 6
    return [_check(name, gap, 0.0) for gap in r2 - (r1 / 3.0 + 1e-8)]


def _suite_bochner(cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    pts = cfg.center_array + cfg.scale * _sample_points(rng, 10, radius=2.0, min_radius=0.2)
    h = 1e-3 * cfg.scale
    c, std, origin = cfg.connection, instanton.STANDARD.connection, np.zeros(4)

    def plus_norm_sq(conn):
        return lambda x: liealg.lv_norm_sq(liealg.lv_self_dual(conn.curvature(x)))

    # (1/2) Lap|F+|^2 - |nabla F+|^2 + <F+, [F+, F+]>: the Laplacian, at 4h where
    # its rounding is small, and the cubic term do not depend on h
    fixed = (0.5 * instanton.laplacian_of(plus_norm_sq(c), pts, 4.0 * h)
             + liealg.cubic_form(liealg.lv_self_dual(c.curvature(pts)), c.f))

    def residual(nabla, fixed=fixed):
        return fixed - instanton.cov_norm_sq(liealg.lv_self_dual(nabla))

    nabla_h = instanton.covariant_derivative_of(c, pts, h, richardson=False)
    nabla_2h = instanton.covariant_derivative_of(c, pts, 2.0 * h, richardson=False)
    checks = _order2_checks("bochner-order2", residual(nabla_2h), residual(nabla_h), cfg.scale)
    lap_term = 0.5 * instanton.laplacian_of(plus_norm_sq(std), origin, 4e-3)
    cubic = liealg.cubic_form(std.curvature(origin), std.f)
    checks.append(_check("laplacian-term-at-0", abs(lap_term + 1536.0) / 1536.0, 1e-5))
    checks.append(_check("bracket-term-at-0", abs(cubic - 1536.0) / 1536.0, 1e-5))
    default = residual(instanton.covariant_derivative_of(c, pts[0], h, richardson=True), fixed[0])
    checks.append(_check("bochner-residual-default", abs(default) * cfg.scale ** 6, 1e-6))
    # the curvature and its Bianchi identity from the connection by differences
    fd = instanton.curvature_fd_of(c, pts, h=h, richardson=True)
    fd_error = np.max(np.abs(fd - instanton.curvature_closed_at(cfg, pts)))
    checks.append(_check("curvature-fd", fd_error * cfg.scale ** 2, 1e-10))
    bianchi = np.max(instanton.bianchi_residual(nabla_h))
    checks.append(_check("bianchi", bianchi * cfg.scale ** 3, 1e-4))
    return checks, {}


def _suite_bracket_sharpness(cfg):
    rng = np.random.default_rng(cfg.seed + 2)
    f = liealg.SU2
    checks = []
    # e1 (x) i + e2 (x) j + e3 (x) k; i, j, k are sqrt2 times the basis
    p = np.sqrt(2.0) * forms4.sd_basis().T
    checks.append(_check("cubic-form-bpst", abs(liealg.cubic_form(p, f) - 24.0), 1e-12))
    checks.append(_check("bracket-norm-bpst",
                         abs(liealg.lv_norm(liealg.comm2form(p, p, f)) - 4.0 * np.sqrt(6.0)),
                         1e-12))
    checks.append(_check("bound-equality-bpst",
                         abs(liealg.bracket_bound_check(p, liealg.GAMMA0_SU2, f)), 1e-10))
    q = p @ rng.standard_normal((200, 3, 3))
    worst = min(0.0, np.min(liealg.bracket_bound_check(q, liealg.GAMMA0_SU2, f)))
    checks.append(_check("bound-nonneg-random", -worst, 1e-10))
    pts = cfg.center_array + cfg.scale * _sample_points(rng, 50, radius=2.0)
    fp = liealg.lv_self_dual(instanton.curvature_closed_at(cfg, pts))
    cubic = liealg.cubic_form(fp, f)
    norms = liealg.lv_norm(fp)
    attain = np.max(np.abs(cubic - liealg.GAMMA1_SU2 * norms ** 3)) * cfg.scale ** 6
    checks.append(_check("pointwise-gamma1-attainment", attain, 1e-10))
    return checks, {}


def _suite_weyl_bound(cfg):
    rng = np.random.default_rng(cfg.seed + 3)
    w = forms4.random_weyl(rng, size=(10000,))
    v = rng.standard_normal((10000, 3))
    worst = np.max(_weyl_gap(w, v))
    w, v = forms4.extremal_weyl(0.7)
    return [_check("weyl-bound-10k", worst, 1e-10),
            _check("weyl-equality-extremal", abs(_weyl_gap(w, v)), 1e-12)], {}


def _weyl_gap(w, v):
    """|<v, w v>| - (2/sqrt6)|w||v|^2, nonpositive by the sharp bound."""
    return (np.abs(forms4.weyl_quad(w, v))
            - forms4.WEYL_BOUND * forms4.weyl_norm(w) * np.einsum('...a,...a->...', v, v))


def _suite_circ_basis(cfg):
    rng = np.random.default_rng(cfg.seed + 4)
    basis = forms4.random_sd_basis(rng, size=(100,))
    # rows e1 o e2, e1 o e3, e2 o e3 of each basis
    prods = liealg.circ(basis[:, [0, 0, 1]], basis[:, [1, 2, 2]])
    gram = 2.0 * prods @ np.swapaxes(prods, -2, -1)
    worst = np.max(np.abs(gram - np.eye(3)))
    return [_check("circ-orthonormal-100bases", worst, 1e-10)], {}


def _suite_gamma_constants(cfg):
    algebras = {'su2': liealg.SU2, 'so3': liealg.SO3}
    g0 = {n: liealg.gamma0_estimate(alg, restarts=64, seed=cfg.seed) for n, alg in algebras.items()}
    g1 = {n: liealg.gamma1_estimate(alg, restarts=32, seed=cfg.seed) for n, alg in algebras.items()}
    checks = [_check("gamma0-su2", abs(g0['su2'].value - liealg.GAMMA0_SU2), 1e-6),
              _check("gamma0-so3", abs(g0['so3'].value - liealg.GAMMA0_SO3), 1e-6),
              _check("gamma1-su2", abs(g1['su2'].value - liealg.GAMMA1_SU2), 1e-5),
              _check("gamma1-so3", abs(g1['so3'].value - liealg.GAMMA1_SO3), 1e-5)]
    g1_so4 = liealg.gamma1_estimate(liealg.SO4, restarts=16, seed=cfg.seed)
    checks.append(_check("gamma1-so4-bound", g1_so4.value - liealg.GAMMA1_MAX, 1e-5))
    constants = {n: {'gamma0': g0[n].value, 'gamma0_grad_norm': g0[n].grad_norm,
                     'gamma0_converged': g0[n].converged, 'gamma0_iterations': g0[n].iterations,
                     'gamma0_restart': g0[n].restart,
                     'gamma1': g1[n].value, 'gamma1_grad_norm': g1[n].grad_norm,
                     'gamma1_converged': g1[n].converged, 'gamma1_iterations': g1[n].iterations,
                     'gamma1_restart': g1[n].restart} for n in algebras}
    return checks, {'constants': constants}


def _suite_energy(cfg):
    # fixed members on the standard grid; only energy_convergence reads cfg
    grid = quad4.RadialGrid.make()
    checks = []
    # the scale-1.0 member is the standard instanton
    energies = {s: quad4.ym_energy(instanton.InstantonParams(s), grid)
                for s in (0.25, 0.5, 1.0, 2.0, 4.0)}
    checks.append(_check("energy-standard",
                         abs(energies[1.0] - quad4.EPI2_16) / quad4.EPI2_16, 1e-8))
    spread = (max(energies.values()) - min(energies.values())) / quad4.EPI2_16
    checks.append(_check("energy-dilation-invariance", spread, 1e-6))
    # one center on a coordinate axis, one off every axis
    for scale, center in ((1.0, (0.6, 0.0, 0.0, 0.0)), (0.5, (0.3, 0.3, 0.3, 0.3))):
        e = quad4.ym_energy(instanton.InstantonParams(scale, center), grid, about=np.zeros(4))
        checks.append(_check(f"energy-shift-{scale}", abs(e - quad4.EPI2_16) / quad4.EPI2_16, 1e-6))
    counts = sorted({8, 12, 16, 24, quad4.panel_count(cfg.scale)})
    table = quad4.energy_convergence_table(cfg, counts)
    return checks, {'energy_convergence': table}


def _suite_chern_weil(cfg):
    plus, minus = quad4.l2_sd_norms(cfg)
    checks = [
        _check("kappa-bpst", abs(quad4.chern_weil_kappa(plus, minus) + 1.0), 1e-8),
        _check("asd-part-vanishes", minus, 1e-10),
    ]
    return checks, {}


def _richardson(value_at, n):
    """(4 v(2n) - v(n)) / 3: the limit of v(n) = a + b h^2 + O(h^4), h = pi / n."""
    return (4.0 * value_at(2 * n) - value_at(n)) / 3.0


def _suite_eigenvalue(cfg):
    checks = []
    lam, vec = conformal.lambda1(conformal.round_problem(12.0, n=2000))
    checks.append(_check("lambda1-const-12", abs(lam - 12.0), 1e-8))
    checks.append(_check("eigenfunction-positive", max(0.0, -float(np.min(vec))), 1e-8))
    rayleigh = _richardson(lambda n: conformal.rayleigh(conformal.round_problem(12.0, n), np.cos),
                           2000)
    checks.append(_check("rayleigh-cos-36", abs(rayleigh - 36.0), 1e-6))
    borderline = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=2000)
    lam0, _ = conformal.lambda1(borderline)
    checks.append(_check("lambda1-borderline", abs(lam0), 1e-6))
    # a zero eigenvalue is conformally invariant: L phi = 0 gives L_hat (phi/u) = 0
    coarse = conformal.phi_of(12.0, 0.0, np.sqrt(6.0), liealg.GAMMA1_SU2, n=500)
    lam_hat, _ = conformal.lambda1(conformal.transform_problem(coarse,
                                                               lambda r: 1.0 + 0.2 * np.cos(r)))
    checks.append(_check("lambda1-borderline-conformal", abs(lam_hat), 1e-6))
    return checks, {}


def _suite_covariance(cfg):
    rng = np.random.default_rng(cfg.seed + 5)
    # 20 factors 1 + sum_k a_k cos k rho with sum |a_k| = 0.3
    amps = rng.uniform(-1.0, 1.0, (20, 3))
    amps *= 0.3 / np.maximum(np.sum(np.abs(amps), axis=1, keepdims=True), 1e-9)
    coeffs = np.c_[np.ones(len(amps)), amps]
    # nonzero |W+| and |F+| (sqrt 6 is the instanton's |F+|): route (b) scales both
    coarse, fine = (conformal.covariance_check(coeffs, conformal.phi_of(
        12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0), liealg.GAMMA1_SU2, n=n))
        for n in (1024, 3072))
    # an O(h^2) gap shrinks 9-fold from n to 3n cells; a zero fine gap reads 1:
    # two routes that agree to the bit are not independent discretizations
    worst = max(abs(c / (9.0 * f) - 1.0) if f > 0 else 1.0 for c, f in zip(coarse, fine))
    return [_check("covariance-20-random", worst, 0.05)], {}


def _suite_yamabe(cfg):
    rng = np.random.default_rng(cfg.seed + 6)
    probs = {n: conformal.round_problem(conformal.ROUND_SCALAR_CURVATURE, n) for n in (2000, 4000)}
    # constants are exact on any grid; the rest is extrapolated from n and 2n
    checks = [_check("quotient-at-round",
                     abs(conformal.yamabe_quotient(1.0, probs[2000]) - conformal.YAMABE_S4), 1e-8)]
    # 50 factors 1 + sum_k a_k cos k rho with sum |a_k| in [0.05, 0.4]
    d = rng.uniform([-1.0, -1.0, -1.0, 0.05], [1.0, 1.0, 1.0, 0.4], (50, 4))
    amps = d[:, :3] * (d[:, 3] / np.sum(np.abs(d[:, :3]), axis=1))[:, None]
    coeffs = np.c_[np.ones(len(amps)), amps]
    q = _richardson(lambda n: conformal.cosine_yamabe_quotients(coeffs, probs[n]), 2000)
    checks.append(_check("quotient-family-floor", conformal.YAMABE_S4 - np.min(q), 1e-6))
    dilated = max(abs(_richardson(lambda n: conformal.yamabe_quotient(
        conformal.dilation_factor(lam), probs[n]), 2000) - conformal.YAMABE_S4)
        for lam in (0.5, 2.0))
    checks.append(_check("quotient-dilation-family", dilated, 1e-5))
    return checks, {}


def _suite_gap(cfg):
    rep = gap_report(cfg)
    checks = [
        _check("verdict-equality", 0.0 if rep.verdict == "equality" else 1.0, 0.5),
        _check("slack-relative", abs(rep.slack) / rep.yamabe, 1e-6),
        _check("equality-identity", rep.equality_residual, 1e-8),
    ]
    # at ||F+|| = 0 every gamma1 in range gives case-1; GAMMA1_MAX is in range whatever its value
    flat = gap_inequality(0.0, liealg.GAMMA1_MAX)
    checks.append(_check("flat-is-case-1", 0.0 if flat.verdict == "case-1" else 1.0, 0.5))
    return checks, {'gap_report': asdict(rep)}


def _suite_thresholds(cfg):
    # both groups at |kappa| = 1, the family's charge (kappa-bpst), against the
    # values the paper prints; each check's residual is the worse group's
    printed = {'su2': 48.0 * np.pi ** 2, 'so3': 80.0 * np.pi ** 2}
    thr = {'su2': corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SU2),
           'so3': corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SO3)}
    checks = [_check("general-vs-weak",
                     max(0.0, *(t.weak_universal - t.general for t in thr.values())), 1e-9),
              _check("specialized-value",
                     max(abs(thr[g].general - printed[g]) for g in thr), 1e-9)]
    return checks, {'thresholds': {g: asdict(t) for g, t in thr.items()}}


def _suite_flow_check(cfg):
    # the instanton is a non-flat Yang-Mills connection, so it cannot flow to
    # flat: the gate must reject its measured energy
    energy = quad4.ym_energy(cfg)
    admissible = flow_admissible(energy)
    checks = [_check("gate-rejects-instanton", 1.0 if admissible else 0.0, 0.5)]
    return checks, {'flow': {'energy': energy, 'threshold': quad4.EPI2_16, 'admissible': admissible,
                             'note': 'admissible energies flow globally and converge; '
                                     'on the round four-sphere the limit is flat '
                                     '(dynamics reported, not simulated)'}}


# Each suite maps the configuration to (checks, sections); the sections are
# the top-level report entries it owns.
_SUITES = {
    "kato": _suite_kato,
    "bochner": _suite_bochner,
    "bracket-sharpness": _suite_bracket_sharpness,
    "weyl-bound": _suite_weyl_bound,
    "circ-basis": _suite_circ_basis,
    "gamma-constants": _suite_gamma_constants,
    "energy": _suite_energy,
    "chern-weil": _suite_chern_weil,
    "eigenvalue": _suite_eigenvalue,
    "covariance": _suite_covariance,
    "yamabe-quotient": _suite_yamabe,
    "gap": _suite_gap,
    "thresholds": _suite_thresholds,
    "flow-check": _suite_flow_check,
}

SUITE_IDS = tuple(_SUITES)


def run_suite(name, cfg=None):
    """Run one named suite; unknown ids raise with the available list."""
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; available: {', '.join(SUITE_IDS)}")
    cfg = cfg or GapConfig()
    t0 = time.perf_counter()
    checks, sections = _SUITES[name](cfg)
    runtime = time.perf_counter() - t0
    return SuiteResult(name, checks, all(c.passed for c in checks), runtime, sections)


def run_all(cfg=None):
    cfg = cfg or GapConfig()
    return [run_suite(name, cfg) for name in SUITE_IDS]


# -- report documents ---------------------------------------------------------

def report_document(cfg, suites=(), command=""):
    """Assemble the versioned report structure (no wall-clock fields).

    Each suite's sections become top-level entries after ``suites``.
    """
    doc = {
        'schema': SCHEMA,
        'command': command,
        'config': asdict(cfg),
        'suites': [s.to_dict() for s in suites],
    }
    for s in suites:
        doc.update(s.sections)
    return doc


def render(doc, fmt="text"):
    """Serialize a report document as json, csv, or human-readable text."""
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        lines = ["suite,check,passed,residual,tolerance"]
        for s in doc.get('suites', []):
            for c in s['checks']:
                lines.append(f"{s['suite']},{c['name']},{int(c['passed'])},"
                             f"{c['residual']:.6e},{c['tolerance']:.6e}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"# {doc['schema']}  command={doc['command']}"]
        for s in doc.get('suites', []):
            status = "PASS" if s['passed'] else "FAIL"
            lines.append(f"[{status}] suite {s['suite']}")
            for c in s['checks']:
                mark = "ok " if c['passed'] else "BAD"
                lines.append(f"    {mark} {c['name']}: residual {c['residual']:.3e}"
                             f" (tol {c['tolerance']:.1e})")
        for key, value in doc.items():
            if key in ('schema', 'command', 'config', 'suites'):
                continue
            lines.append(f"{key}: {json.dumps(value)}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")
