"""Top-level verification suites and the gap-inequality evaluator.

The central object is the sharp bound

    Y([g]) <= 3 gamma1 ||F+||_L2 + 2 sqrt(6) ||W+||_L2

for a Yang-Mills connection with F+ not identically zero.
``gap_inequality`` compares the four numbers; ``gap_report`` feeds it
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
class GapConfig:
    """The values the command line sets, and nothing else."""

    group: str = "su2"                      # su2 | so3; only thresholds reads it
    scale: float = 1.0
    center: tuple = (0.0, 0.0, 0.0, 0.0)
    rmax: float = 1000.0                    # the grid's panels follow from rmax and scale
    seed: int = 0
    tol: float = 1e-6                       # relative equality-verdict tolerance
    kappa: float = 1.0                      # |kappa| of the bundle, for thresholds
    energy: float | None = None             # flow-check energy; None: the instanton's

    def __post_init__(self):
        for name in ("scale", "center", "rmax", "tol", "kappa", "energy"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.group not in ("su2", "so3"):
            raise ConfigError(f"group must be 'su2' or 'so3', got {self.group!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed!r}")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        # the instanton, the grid, the thresholds and the flow predicate check the rest
        try:
            self.instanton_params()
            self.grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.thresholds()
        if self.energy is not None:
            flow_admissible(self.energy)

    def instanton_params(self):
        return instanton.InstantonParams(self.scale, tuple(self.center))

    def grid(self):
        return quad4.RadialGrid.make(rmax=self.rmax, scale=self.scale)

    def thresholds(self):
        gamma1 = {"su2": liealg.GAMMA1_SU2, "so3": liealg.GAMMA1_SO3}[self.group]
        return corollary_thresholds(self.kappa, conformal.YAMABE_S4, gamma1)

    def to_dict(self):
        d = asdict(self)
        d['center'] = list(self.center)
        return d


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

    def to_dict(self):
        return asdict(self)


def gap_inequality(f_plus_l2, gamma1, yamabe=conformal.YAMABE_S4, w_plus_l2=0.0, tol=1e-6):
    """Compare Y with 3 gamma1 ||F+|| + 2 sqrt(6) ||W+||; ``tol`` is the
    relative slack below which the verdict is ``equality``."""
    for name, value in (("f_plus_l2", f_plus_l2), ("gamma1", gamma1), ("yamabe", yamabe),
                        ("w_plus_l2", w_plus_l2), ("tol", tol)):
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if f_plus_l2 < 0 or w_plus_l2 < 0:
        raise ConfigError("||F+|| and ||W+|| must be nonnegative")
    if not yamabe > 0:
        raise ConfigError("the Yamabe invariant must be positive")
    if not tol > 0:
        raise ConfigError("tol must be positive")
    if not 0.0 < gamma1 <= liealg.GAMMA1_MAX + 1e-12:
        raise ConfigError(f"gamma1 = {gamma1} outside (0, 4/sqrt(6)]")
    rhs = 3.0 * gamma1 * f_plus_l2 + 2.0 * np.sqrt(6.0) * w_plus_l2
    slack = rhs - yamabe

    if f_plus_l2 < 1e-10:
        verdict = "case-1"
    elif abs(slack) < tol * yamabe:
        verdict = "equality"
    elif slack > 0:
        verdict = "inequality-holds"
    else:
        verdict = "strict-gap-violated"
    return GapReport(yamabe, gamma1, f_plus_l2, w_plus_l2, rhs, slack, verdict)


def gap_report(cfg):
    """The gap inequality for the configured instanton on the round S^4.

    The instanton is su(2)-valued, so gamma1 is the su(2) constant whatever
    ``cfg.group`` says. The report also carries the residual of the
    pointwise identity behind the equality case, a property of the
    instanton whatever the L2 verdict."""
    params = cfg.instanton_params()
    f_plus, _ = quad4.l2_sd_norms(params, cfg.grid())
    rep = gap_inequality(f_plus, liealg.GAMMA1_SU2, tol=cfg.tol)
    rep.equality_residual = _equality_identity_residual(params, rep.gamma1)
    return rep


def _equality_identity_residual(params, gamma1):
    """Max |R - 3 gamma1 |F+|_round| over 64 sample points, round representative.

    The round-metric pointwise norm is u^-2 |F+|_flat with u = 2/(1+|x|^2)
    composed with the conformal motion taking ``params`` to standard.
    """
    rho = np.linspace(0.05, np.pi - 0.05, 64)
    r = np.tan(0.5 * rho)
    x = np.zeros((len(r), 4))
    x[:, 0] = r
    # pull the sample ray through the conformal motion pairing params with
    # the standard instanton; scale^2 undoes the curvature pullback factor
    xs = params.center_array + params.scale * x
    u = 2.0 / (1.0 + r ** 2)
    f_round = np.sqrt(instanton.curvature_norm_sq(params, xs)) * params.scale ** 2 / u ** 2
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

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteResult:
    suite: str
    checks: list
    passed: bool
    runtime: float = field(default=0.0, compare=False)
    sections: dict = field(default_factory=dict)   # top-level report entries

    def to_dict(self):
        return {'suite': self.suite, 'passed': self.passed,
                'checks': [c.to_dict() for c in self.checks]}


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
    params = cfg.instanton_params()
    pts = params.center_array + cfg.scale * _sample_points(rng, 1000, radius=3.0)
    worst = np.min(instanton.kato_residual_at(params, pts, h=1e-4 * cfg.scale))
    return ([_check("kato-floor-1000pts", -worst * cfg.scale ** 6, 1e-8)]
            + _order2_checks("kato-order2", instanton.kato_residual_at, params, pts[:3])), {}


def _order2_checks(name, residual_at, params, pts):
    """One check per point that the residual (~ scale^-6) decays at least
    quadratically from h = 2e-3 to 1e-3 scale; the floor absorbs points
    where the h^2 error coefficient happens to cross zero."""
    scale = params.scale
    r1 = np.abs(residual_at(params, pts, h=2e-3 * scale, richardson=False)) * scale ** 6
    r2 = np.abs(residual_at(params, pts, h=1e-3 * scale, richardson=False)) * scale ** 6
    return [_check(name, gap, 0.0) for gap in r2 - (r1 / 3.0 + 1e-8)]


def _suite_bochner(cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    params = cfg.instanton_params()
    pts = params.center_array + cfg.scale * _sample_points(rng, 10, radius=2.0, min_radius=0.2)
    h = 1e-3 * cfg.scale
    checks = _order2_checks("bochner-order2", instanton.bochner_residual_at, params, pts)
    origin = np.zeros(4)
    lap_term = 0.5 * instanton.curvature_norm_sq_laplacian(instanton.STANDARD, origin)
    cubic = liealg.cubic_form(instanton.curvature_closed_at(instanton.STANDARD, origin))
    checks.append(_check("laplacian-term-at-0", abs(lap_term + 1536.0) / 1536.0, 1e-5))
    checks.append(_check("bracket-term-at-0", abs(cubic - 1536.0) / 1536.0, 1e-5))
    residual = instanton.bochner_residual_at(params, pts[0], h=h, richardson=True)
    checks.append(_check("bochner-residual-default", abs(residual) * cfg.scale ** 6, 1e-6))
    # the curvature and its Bianchi identity from the connection by differences
    fd = instanton.curvature_fd_at(params, pts, h=h, richardson=True)
    fd_error = np.max(np.abs(fd - instanton.curvature_closed_at(params, pts)))
    checks.append(_check("curvature-fd", fd_error * cfg.scale ** 2, 1e-10))
    bianchi = np.max(instanton.bianchi_residual_at(params, pts, h=h))
    checks.append(_check("bianchi", bianchi * cfg.scale ** 3, 1e-4))
    return checks, {}


def _suite_bracket_sharpness(cfg):
    rng = np.random.default_rng(cfg.seed + 2)
    checks = []
    basis = np.stack([liealg.SU2_I, liealg.SU2_J, liealg.SU2_K])
    p = liealg.lv_from_sd_coeffs(basis)
    checks.append(_check("cubic-form-bpst", abs(liealg.cubic_form(p) - 24.0), 1e-12))
    checks.append(_check("bracket-norm-bpst",
                         abs(liealg.lv_norm(liealg.comm2form(p, p)) - 4.0 * np.sqrt(6.0)), 1e-12))
    checks.append(_check("bound-equality-bpst",
                         abs(liealg.bracket_bound_check(p, liealg.GAMMA0_SU2)), 1e-10))
    coeffs = rng.standard_normal((200, 3, 3))
    q = liealg.lv_from_sd_coeffs(np.einsum('...ak,kij->...aij', coeffs, basis))
    worst = min(0.0, np.min(liealg.bracket_bound_check(q, liealg.GAMMA0_SU2)))
    checks.append(_check("bound-nonneg-random", -worst, 1e-10))
    params = cfg.instanton_params()
    pts = params.center_array + cfg.scale * _sample_points(rng, 50, radius=2.0)
    fp = liealg.lv_self_dual(instanton.curvature_closed_at(params, pts))
    cubic = liealg.cubic_form(fp)
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
            - forms4.WEYL_BOUND * forms4.weyl_norm(w) * np.sum(v * v, axis=-1))


def _suite_circ_basis(cfg):
    rng = np.random.default_rng(cfg.seed + 4)
    basis = forms4.random_sd_basis(rng, size=(100,))
    # rows e1 o e2, e1 o e3, e2 o e3 of each basis
    prods = forms4.circ(basis[:, [0, 0, 1]], basis[:, [1, 2, 2]])
    gram = 2.0 * prods @ np.swapaxes(prods, -2, -1)
    worst = np.max(np.abs(gram - np.eye(3)))
    return [_check("circ-orthonormal-100bases", worst, 1e-10)], {}


def _suite_gamma_constants(cfg):
    algebras = {'su2': liealg.AlgebraSpec.su2_real(), 'so3': liealg.AlgebraSpec.so3_block()}
    g0 = {n: liealg.gamma0_estimate(alg, restarts=64, seed=cfg.seed) for n, alg in algebras.items()}
    g1 = {n: liealg.gamma1_estimate(alg, restarts=32, seed=cfg.seed) for n, alg in algebras.items()}
    checks = [_check("gamma0-su2", abs(g0['su2'].value - liealg.GAMMA0_SU2), 1e-6),
              _check("gamma0-so3", abs(g0['so3'].value - liealg.GAMMA0_SO3), 1e-6),
              _check("gamma1-su2", abs(g1['su2'].value - liealg.GAMMA1_SU2), 1e-5),
              _check("gamma1-so3", abs(g1['so3'].value - liealg.GAMMA1_SO3), 1e-5)]
    g1_so4 = liealg.gamma1_estimate(liealg.AlgebraSpec.so_n(4), restarts=16, seed=cfg.seed)
    checks.append(_check("gamma1-so4-bound", g1_so4.value - liealg.GAMMA1_MAX, 1e-5))
    constants = {n: {'gamma0': g0[n].value, 'gamma0_grad_norm': g0[n].grad_norm,
                     'gamma0_converged': g0[n].converged,
                     'gamma1': g1[n].value, 'gamma1_grad_norm': g1[n].grad_norm,
                     'gamma1_converged': g1[n].converged} for n in algebras}
    return checks, {'constants': constants}


def _suite_energy(cfg):
    grid = cfg.grid()
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
    counts = sorted({8, 12, 16, 24, quad4.panel_count(cfg.rmax, cfg.scale)})
    table = quad4.energy_convergence_table(cfg.instanton_params(), counts, rmax=cfg.rmax)
    return checks, {'energy_convergence': table}


def _suite_chern_weil(cfg):
    grid = cfg.grid()
    params = cfg.instanton_params()
    plus, minus = quad4.l2_sd_norms(params, grid)
    checks = [
        _check("kappa-bpst", abs(quad4.chern_weil_kappa(plus, minus) + 1.0), 1e-8),
        _check("asd-part-vanishes", minus, 1e-10),
    ]
    return checks, {}


def _suite_eigenvalue(cfg):
    checks = []
    lam, vec = conformal.lambda1(conformal.round_problem(12.0, n=2000))
    checks.append(_check("lambda1-const-12", abs(lam - 12.0), 1e-8))
    checks.append(_check("eigenfunction-positive", max(0.0, -float(np.min(vec))), 1e-8))
    prob = conformal.round_problem(12.0, n=16000)
    checks.append(_check("rayleigh-cos-36", abs(conformal.rayleigh(prob, np.cos) - 36.0), 1e-6))
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
    # nonzero |W+| and |F+| (sqrt 6 is the instanton's |F+|): route (b) scales both
    field = conformal.phi_of(12.0, lambda r: 0.2 * (1.0 + np.cos(r)), np.sqrt(6.0),
                             liealg.GAMMA1_SU2, n=65536)
    modes = np.cos(np.arange(1, 4)[:, None] * field.rho)
    worst = 0.0
    for _ in range(20):
        amps = rng.uniform(-1.0, 1.0, 3)
        amps *= 0.3 / max(np.sum(np.abs(amps)), 1e-9)
        u = 1.0 + sum(a * mode for a, mode in zip(amps, modes))
        worst = max(worst, conformal.covariance_check(u, field))
    return [_check("covariance-20-random", worst, 1e-6)], {}


def _suite_yamabe(cfg):
    rng = np.random.default_rng(cfg.seed + 6)
    prob = conformal.round_problem(conformal.ROUND_SCALAR_CURVATURE, 20000)
    checks = [_check("quotient-at-round",
                     abs(conformal.yamabe_quotient(1.0, prob) - conformal.YAMABE_S4), 1e-8)]
    modes = np.cos(np.arange(1, 4)[:, None] * prob.rho)
    min_q = np.inf
    for _ in range(50):
        amps = rng.uniform(-1.0, 1.0, 3)
        amps *= rng.uniform(0.05, 0.4) / np.sum(np.abs(amps))
        u = 1.0 + sum(a * mode for a, mode in zip(amps, modes))
        min_q = min(min_q, conformal.yamabe_quotient(u, prob))
    checks.append(_check("quotient-family-floor", conformal.YAMABE_S4 - min_q, 1e-6))
    dilated = max(abs(conformal.yamabe_quotient(conformal.dilation_factor(lam), prob)
                      - conformal.YAMABE_S4) for lam in (0.5, 2.0))
    checks.append(_check("quotient-dilation-family", dilated, 1e-5))
    return checks, {}


def _suite_gap(cfg):
    rep = gap_report(cfg)
    checks = [
        _check("verdict-equality", 0.0 if rep.verdict == "equality" else 1.0, 0.5),
        _check("slack-relative", abs(rep.slack) / rep.yamabe, cfg.tol),
        _check("equality-identity", rep.equality_residual, 1e-8),
    ]
    flat = gap_inequality(0.0, rep.gamma1, tol=cfg.tol)
    checks.append(_check("flat-is-case-1", 0.0 if flat.verdict == "case-1" else 1.0, 0.5))
    return checks, {'gap_report': rep.to_dict()}


def _suite_thresholds(cfg):
    thr = cfg.thresholds()
    # the values the paper prints, 48 pi^2 (su2) and 80 pi^2 (so3) at |kappa| = 1
    printed = 16.0 * np.pi ** 2 * cfg.kappa + {'su2': 32.0, 'so3': 64.0}[cfg.group] * np.pi ** 2
    checks = [_check("general-vs-weak", max(0.0, thr.weak_universal - thr.general), 1e-9),
              _check("specialized-value", abs(thr.general - printed), 1e-9)]
    return checks, {'thresholds': {'general': thr.general, 'weak_universal': thr.weak_universal,
                                   'kappa_abs': cfg.kappa}}


def _suite_flow_check(cfg):
    # the instanton is a non-flat Yang-Mills connection, so it cannot flow to
    # flat: the gate must reject its measured energy
    instanton_energy = quad4.ym_energy(cfg.instanton_params(), cfg.grid())
    checks = [_check("gate-rejects-instanton",
                     1.0 if flow_admissible(instanton_energy) else 0.0, 0.5)]
    energy, source = ((instanton_energy, 'computed') if cfg.energy is None
                      else (cfg.energy, 'configured'))
    return checks, {'flow': {'energy': energy, 'energy_source': source,
                             'threshold': quad4.EPI2_16, 'admissible': flow_admissible(energy),
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
        'config': cfg.to_dict(),
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
