"""Gap reports, thresholds, flow predicate, suites, CLI."""

import ast
import dataclasses
import inspect
import json
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ymgap import cli, conformal, forms4, instanton, liealg, quad4, report

PI2 = np.pi ** 2


def test_gap_report_equality_case():
    rep = report.gap_report(report.GapConfig())
    assert rep.verdict == "equality"
    assert abs(rep.slack) / rep.yamabe < 1e-6
    assert abs(rep.yamabe - 8 * np.sqrt(6) * np.pi) < 1e-10
    assert abs(rep.rhs - 3 * liealg.GAMMA1_SU2 * 4 * np.pi) / rep.rhs < 1e-7
    assert rep.equality_residual is not None and rep.equality_residual < 1e-8


def test_gap_report_flat_and_violated():
    assert report.gap_inequality(0.0, liealg.GAMMA1_SU2).verdict == "case-1"
    synth = report.gap_inequality(1.0, liealg.GAMMA1_SU2)
    assert synth.verdict == "strict-gap-violated"
    assert synth.slack < 0
    big = report.gap_inequality(100.0, liealg.GAMMA1_SU2)
    assert big.verdict == "inequality-holds"


def test_gap_report_rhs_closure_and_provenance():
    rep = report.gap_report(report.GapConfig())
    recomputed = 3.0 * rep.gamma1 * rep.f_plus_l2 + 2.0 * np.sqrt(6.0) * rep.w_plus_l2
    assert rep.rhs == recomputed            # bit-exact recomposition


def test_gap_config_validation():
    with pytest.raises(report.ConfigError):
        report.GapConfig(seed=-1)
    # a numpy integer seed is stored as an int, which the JSON report can write
    doc = report.report_document(report.GapConfig(seed=np.int64(3)))
    assert json.loads(report.render(doc, "json"))["config"]["seed"] == 3
    for kwargs in ({"w_plus_l2": -1.0}, {"yamabe": 0.0}):
        with pytest.raises(report.ConfigError):
            report.gap_inequality(4 * np.pi, liealg.GAMMA1_SU2, **kwargs)
    for f_plus, gamma1 in ((-1.0, liealg.GAMMA1_SU2), (4 * np.pi, 0.0),
                           (4 * np.pi, liealg.GAMMA1_MAX * (1 + 1e-9))):
        with pytest.raises(report.ConfigError):
            report.gap_inequality(f_plus, gamma1)


def test_gap_config_scale_is_a_plain_float():
    # one configuration, one document, whatever real type the scale came as
    docs = {report.render(report.report_document(report.GapConfig(scale=s)), "json")
            for s in (2, 2.0, np.int64(2), np.float32(2.0))}
    assert len(docs) == 1 and '"scale": 2.0' in docs.pop()
    cfg = report.GapConfig(scale=np.float32(0.5))
    assert type(cfg.scale) is float and cfg.scale == 0.5
    assert json.loads(report.render(report.report_document(cfg), "json"))["config"]["scale"] == 0.5


def test_corollary_thresholds():
    thr = report.corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SU2)
    assert abs(thr.general - 48 * PI2) < 1e-9
    thr3 = report.corollary_thresholds(1.0, conformal.YAMABE_S4, liealg.GAMMA1_SO3)
    assert abs(thr3.general - 80 * PI2) < 1e-9
    # at gamma1 = 4/sqrt(6) the general bound degenerates to the weak one
    assert abs(thr.general - thr.weak_universal) < 1e-9
    assert thr3.weak_universal < thr3.general
    with pytest.raises(report.ConfigError):
        report.corollary_thresholds(-1.0, 1.0, 1.0)
    with pytest.raises(report.ConfigError):
        report.corollary_thresholds(1.0, -1.0, 1.0)
    with pytest.raises(report.ConfigError):              # the thresholds overflow
        report.corollary_thresholds(1e308, conformal.YAMABE_S4, liealg.GAMMA1_SU2)


def test_flow_admissible():
    assert report.flow_admissible(0.0) is True
    assert report.flow_admissible(16 * PI2) is False
    assert report.flow_admissible(15.9 * PI2) is True
    computed = quad4.ym_energy(report.GapConfig())
    assert report.flow_admissible(computed) is False
    for energy in (-1.0, float("nan"), float("inf")):
        with pytest.raises(report.ConfigError):
            report.flow_admissible(energy)


def test_run_suite_unknown_id():
    with pytest.raises(report.ConfigError, match="gamma-constants"):
        report.run_suite("nope")


def test_gamma_constants_suite_builds_no_algebra(monkeypatch):
    # the three structure-constant tables are module constants of liealg,
    # tabulated once at import
    calls = []
    structure_constants = liealg._structure_constants

    def counting(basis):
        calls.append(basis)
        return structure_constants(basis)

    monkeypatch.setattr(liealg, "_structure_constants", counting)
    assert report.run_suite("gamma-constants").passed
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["circ-basis", "weyl-bound", "bracket-sharpness",
                                  "chern-weil", "eigenvalue", "gap", "thresholds",
                                  "flow-check"])
def test_individual_suites_pass(name):
    result = report.run_suite(name)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.runtime >= 0.0


@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_scale_free_checks_pass_at_every_scale(scale):
    # the pointwise suites are measured in the instanton's units, so their
    # absolute tolerances hold at any scale
    cfg = report.GapConfig(scale=scale)
    for name in ("kato", "bochner", "bracket-sharpness"):
        result = report.run_suite(name, cfg)
        assert result.passed, (scale, [c for c in result.checks if not c.passed])


def test_covariance_suite_traced_peak():
    # two fields of 1024 and 3072 cells, one at a time, each with its cosine modes, their
    # two Laplacian images and the route core's temporaries. Measured 0.45 MiB (0.36 MiB
    # when each factor's Laplacians came from its node values)
    report.run_suite("covariance")
    tracemalloc.start()
    try:
        report.run_suite("covariance")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_richardson_removes_the_h2_term():
    # v(n) = a + b h^2 with h = pi / n, as a grid quantity with an O(h^2) error
    a, b = 36.0, -7.25
    value = report._richardson(lambda n: a + b * (np.pi / n) ** 2, 2000)
    assert abs(value - a) <= 4 * np.finfo(float).eps * a


def test_extrapolated_radial_checks_read_roundoff():
    checks = {c.name: c.residual for name in ("eigenvalue", "yamabe-quotient")
              for c in report.run_suite(name).checks}
    assert checks["rayleigh-cos-36"] <= 1e-10
    assert checks["quotient-dilation-family"] <= 1e-10


# seeds as the benchmark draws them for its passes, up to 2^31
PASS_SEEDS = [random.Random(f"{run}:{index}").randrange(2 ** 31)
              for run in range(2) for index in range(10)]


@pytest.mark.parametrize("name", ["eigenvalue", "covariance", "yamabe-quotient"])
def test_radial_suites_pass_for_benchmark_seeds(name):
    for seed in PASS_SEEDS:
        result = report.run_suite(name, report.GapConfig(seed=seed))
        assert result.passed, (seed, [c for c in result.checks if not c.passed])


def test_covariance_order_check_with_a_zero_fine_gap(monkeypatch):
    # routes that agree to the bit on the fine grid read 1, with no division by zero
    monkeypatch.setattr(conformal, "covariance_check", lambda coeffs, field: np.zeros(len(coeffs)))
    (check,) = report.run_suite("covariance").checks
    assert check.residual == 1.0 and not check.passed


# (suite, check, tolerance) of every check of ``run_all(GapConfig())``, in order
PINNED_TOLERANCES = [
    ('kato', 'kato-floor-1000pts', 1e-08),
    ('kato', 'kato-order2', 0.0),
    ('kato', 'kato-order2', 0.0),
    ('kato', 'kato-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'bochner-order2', 0.0),
    ('bochner', 'laplacian-term-at-0', 1e-05),
    ('bochner', 'bracket-term-at-0', 1e-05),
    ('bochner', 'bochner-residual-default', 1e-06),
    ('bochner', 'curvature-fd', 1e-10),
    ('bochner', 'bianchi', 0.0001),
    ('bracket-sharpness', 'cubic-form-bpst', 1e-12),
    ('bracket-sharpness', 'bracket-norm-bpst', 1e-12),
    ('bracket-sharpness', 'bound-equality-bpst', 1e-10),
    ('bracket-sharpness', 'bound-nonneg-random', 1e-10),
    ('bracket-sharpness', 'pointwise-gamma1-attainment', 1e-10),
    ('weyl-bound', 'weyl-bound-10k', 1e-10),
    ('weyl-bound', 'weyl-equality-extremal', 1e-12),
    ('circ-basis', 'circ-orthonormal-100bases', 1e-10),
    ('gamma-constants', 'gamma0-su2', 1e-06),
    ('gamma-constants', 'gamma0-so3', 1e-06),
    ('gamma-constants', 'gamma1-su2', 1e-05),
    ('gamma-constants', 'gamma1-so3', 1e-05),
    ('gamma-constants', 'gamma1-so4-bound', 1e-05),
    ('energy', 'energy-standard', 1e-08),
    ('energy', 'energy-dilation-invariance', 1e-06),
    ('energy', 'energy-shift-1.0', 1e-06),
    ('energy', 'energy-shift-0.5', 1e-06),
    ('chern-weil', 'kappa-bpst', 1e-08),
    ('chern-weil', 'asd-part-vanishes', 1e-10),
    ('eigenvalue', 'lambda1-const-12', 1e-08),
    ('eigenvalue', 'eigenfunction-positive', 1e-08),
    ('eigenvalue', 'rayleigh-cos-36', 1e-06),
    ('eigenvalue', 'lambda1-borderline', 1e-06),
    ('eigenvalue', 'lambda1-borderline-conformal', 1e-06),
    ('covariance', 'covariance-20-random', 0.05),
    ('yamabe-quotient', 'quotient-at-round', 1e-08),
    ('yamabe-quotient', 'quotient-family-floor', 1e-06),
    ('yamabe-quotient', 'quotient-dilation-family', 1e-05),
    ('gap', 'verdict-equality', 0.5),
    ('gap', 'slack-relative', 1e-06),
    ('gap', 'equality-identity', 1e-08),
    ('gap', 'flat-is-case-1', 0.5),
    ('thresholds', 'general-vs-weak', 1e-09),
    ('thresholds', 'specialized-value', 1e-09),
    ('flow-check', 'gate-rejects-instanton', 0.5),
]


def test_check_tolerances_are_pinned():
    rows = [(s.suite, c.name, c.tolerance)
            for s in report.run_all(report.GapConfig()) for c in s.checks]
    assert rows == PINNED_TOLERANCES


# top-level sections and their inner keys, by the suite that owns them
SECTION_KEYS = {
    'constants': {'su2', 'so3'},
    'gap_report': {'yamabe', 'gamma1', 'f_plus_l2', 'w_plus_l2', 'rhs', 'slack', 'verdict',
                   'equality_residual'},
    'thresholds': {'su2', 'so3'},
    'flow': {'energy', 'threshold', 'admissible', 'note'},
}


def test_suite_determinism_bytes(capsys):
    cfg = report.GapConfig(seed=7)
    docs = []
    for _ in range(2):
        suites = [report.run_suite("circ-basis", cfg), report.run_suite("gap", cfg)]
        doc = report.report_document(cfg, suites, command="gap")
        docs.append(report.render(doc, "json"))
    assert docs[0] == docs[1]
    assert "runtime" not in docs[0]
    outputs = []
    for _ in range(2):
        assert cli.main(["--seed", "7", "--format", "json", "all"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert [s["suite"] for s in doc["suites"]] == list(report.SUITE_IDS)
    assert {key: set(doc[key]) for key in SECTION_KEYS} == SECTION_KEYS
    assert "gamma0-runtime" not in outputs[0]


def test_render_formats():
    cfg = report.GapConfig()
    suites = [report.run_suite("circ-basis", cfg)]
    doc = report.report_document(cfg, suites, command="all")
    js = json.loads(report.render(doc, "json"))
    assert js["schema"] == report.SCHEMA
    assert js["suites"][0]["suite"] == "circ-basis"
    csv_text = report.render(doc, "csv")
    assert csv_text.splitlines()[0] == "suite,check,passed,residual,tolerance"
    text = report.render(doc, "text")
    assert "circ-basis" in text
    with pytest.raises(report.ConfigError):
        report.render(doc, "yaml")


def test_cli_gap_json(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--format", "json", "--out", str(out), "gap"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "gap"
    assert doc["gap_report"]["verdict"] == "equality"
    # the instanton is su(2)-valued, so the gap takes the su(2) constant
    assert doc["gap_report"]["gamma1"] == liealg.GAMMA1_SU2


def test_cli_thresholds_and_flow(capsys):
    assert cli.main(["--format", "text", "thresholds"]) == 0
    text = capsys.readouterr().out
    assert "thresholds" in text
    # both groups on every run, at |kappa| = 1
    assert cli.main(["--format", "json", "thresholds"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["thresholds"]["su2"]["general"] - 48 * PI2) < 1e-9
    assert abs(doc["thresholds"]["so3"]["general"] - 80 * PI2) < 1e-9
    assert cli.main(["flow-check"]) == 0
    doc_text = capsys.readouterr().out
    assert "admissible" in doc_text


def test_cli_flow_check_json(capsys):
    assert cli.main(["--format", "json", "flow-check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flow"]["admissible"] is False
    assert doc["flow"]["energy"] == quad4.ym_energy(report.GapConfig())


@pytest.mark.parametrize("flags, cfg", [
    ([], report.GapConfig()),
    (["--lambda", "0.5", "--center=1,0,0,0"],
     report.GapConfig(scale=0.5, center=(1.0, 0.0, 0.0, 0.0)))])
def test_cli_energy_reports_convergence_table(flags, cfg, capsys):
    assert cli.main(["--format", "json", *flags, "energy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))
    rows = doc["energy_convergence"]
    panels = quad4.panel_count(cfg.scale)
    assert [row["panels"] for row in rows] == sorted({8, 12, 16, 24, panels})
    row = next(row for row in rows if row["panels"] == panels)
    assert row["energy"] == quad4.ym_energy(cfg)


def test_grid_rule_resolves_every_scale_and_rmax():
    # the default is the 24-panel grid on [0, 1000], node for node
    rule, fixed = quad4.RadialGrid.make(), quad4.RadialGrid.make(panels=24)
    assert np.array_equal(rule.nodes, fixed.nodes) and np.array_equal(rule.weights, fixed.weights)
    assert rule.nodes[-1] == 1000.0
    # the first panel ends at 0.25 min(1, scale) and rmax is 1000 max(1, scale),
    # so narrow and wide members keep the grid checks at every scale
    for scale in (1e-20, 0.005, 0.02, 50.0, 200.0, 1e20):
        cfg = report.GapConfig(scale=scale)
        assert quad4.RadialGrid.make(scale=scale).nodes[-1] == 1000.0 * max(1.0, scale)
        for name in ("energy", "chern-weil", "gap", "flow-check"):
            result = report.run_suite(name, cfg)
            assert result.passed, (scale, [c for c in result.checks if not c.passed])


def test_cli_eigen_and_center_flags(capsys):
    code = cli.main(["--lambda", "0.5", "--center", "0.1,0,0,0",
                     "--format", "json", "eigen"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["scale"] == 0.5
    assert doc["config"]["center"] == [0.1, 0, 0, 0]
    assert all(s["passed"] for s in doc["suites"])


def test_cli_bad_config_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--center", "1,2", "gap"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    # the what-if inputs are library arguments, not flags
    for argv in (["--tol", "1e-4", "gap"], ["--group", "so3", "thresholds"],
                 ["thresholds", "--kappa", "2"], ["flow-check", "--energy", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    pytest.param(["--lambda", "inf", "gap"], id="lambda-inf"),
    pytest.param(["--center=nan,0,0,0", "thresholds"], id="center-nan"),
    pytest.param(["--lambda=-inf", "flow-check"], id="lambda-minus-inf"),
    pytest.param(["--lambda", "nan", "gap"], id="lambda-nan"),
    pytest.param(["--center=0,0,inf,0", "energy"], id="center-inf"),
])
def test_cli_non_finite_input_is_config_error(argv, capsys):
    assert cli.main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["--lambda", "-1", "gap"], id="lambda-minus-1"),
    pytest.param(["--lambda", "0", "gap"], id="lambda-0"),
    # the suites' arithmetic would overflow
    pytest.param(["--lambda", "1e-30", "gap"], id="lambda-1e-30"),
    # every command builds the instanton
    pytest.param(["--lambda", "1e-21", "thresholds"], id="lambda-1e-21"),
    # the cap 1e20 bounds the grid's rmax by 1e23
    pytest.param(["--lambda", "1e21", "energy"], id="lambda-1e21"),
    pytest.param(["--lambda=-1e-3", "flow-check"], id="lambda-minus-1e-3"),
    pytest.param(["--lambda", "1e30", "gap"], id="lambda-1e30"),
    pytest.param(["--seed", "-5", "flow-check"], id="seed-minus-5"),
    pytest.param(["--seed", "-1", "gap"], id="seed-minus-1"),
    pytest.param(["--out", "{missing}/report.json", "thresholds"], id="out-unwritable-thresholds"),
    pytest.param(["--lambda", "2e20", "flow-check"], id="lambda-2e20"),
    pytest.param(["--out", "{missing}/report.json", "eigen"], id="out-unwritable-eigen"),
])
def test_cli_out_of_range_input_is_config_error(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "no-such-dir") for arg in argv]   # unwritable paths
    assert cli.main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kwargs", [
    pytest.param({"scale": -1.0}, id="scale-minus-1"),
    pytest.param({"scale": 1e21}, id="scale-1e21"),
    pytest.param({"scale": 1e-21}, id="scale-1e-21"),
    pytest.param({"scale": 0.0}, id="scale-0"),
    pytest.param({"scale": 2e20}, id="scale-2e20"),
    pytest.param({"scale": True}, id="scale-bool"),
    pytest.param({"scale": "2"}, id="scale-str"),
    pytest.param({"scale": 1j}, id="scale-complex"),
    pytest.param({"center": (1.0, 2.0)}, id="center-2-values"),
    pytest.param({"center": (0.0,) * 5}, id="center-5-values"),
    pytest.param({"center": ()}, id="center-empty"),
    pytest.param({"center": ((0.0, 0.0), (0.0, 0.0))}, id="center-nested-2x2"),
    # numpy's SeedSequence takes only nonnegative integers
    pytest.param({"seed": float("nan")}, id="seed-nan"),
    pytest.param({"seed": 1.5}, id="seed-1.5"),
    pytest.param({"seed": "0"}, id="seed-str"),
    pytest.param({"seed": True}, id="seed-bool"),
])
def test_gap_config_rejects_what_lower_layers_reject(kwargs):
    with pytest.raises(report.ConfigError):
        report.GapConfig(**kwargs)


@pytest.mark.parametrize("field", ["scale", "center"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_gap_config_rejects_non_finite(field, value):
    with pytest.raises(report.ConfigError, match=field):
        report.GapConfig(**{field: value})


@pytest.mark.parametrize("field", ["f_plus_l2", "w_plus_l2", "yamabe"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_gap_inequality_rejects_non_finite(field, value):
    inputs = {"f_plus_l2": 4 * np.pi, "gamma1": liealg.GAMMA1_SU2, field: value}
    with pytest.raises(report.ConfigError, match=field):
        report.gap_inequality(**inputs)


def test_gap_config_rejects_non_finite_center():
    with pytest.raises(report.ConfigError, match="center"):
        report.GapConfig(center=(0.0, float("nan"), 0.0, 0.0))


def _random_member():
    rng = np.random.default_rng(28)
    return float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))), tuple(rng.uniform(-2, 2, 4))


@pytest.mark.parametrize("scale, center", [
    pytest.param(1.0, (0.0, 0.0, 0.0, 0.0), id="default"),
    pytest.param(2.0, (30.0, 0.0, 0.0, 0.0), id="lambda-2-center-30"),
    pytest.param(*_random_member(), id="random-member"),
])
def test_config_is_the_instanton_member(scale, center):
    cfg, params = report.GapConfig(scale, center, 7), instanton.InstantonParams(scale, center)
    assert isinstance(cfg, instanton.InstantonParams)
    pts = np.asarray(center) + scale * np.random.default_rng(0).standard_normal((20, 4))
    assert quad4.ym_energy(cfg) == quad4.ym_energy(params)
    assert quad4.l2_sd_norms(cfg) == quad4.l2_sd_norms(params)
    assert np.array_equal(instanton.curvature_closed_at(cfg, pts),
                          instanton.curvature_closed_at(params, pts))
    assert np.array_equal(instanton.kato_residual_at(cfg.connection, pts),
                          instanton.kato_residual_at(params.connection, pts))


def test_render_json_is_strict():
    doc = {"schema": report.SCHEMA, "value": float("nan")}
    with pytest.raises(ValueError):
        report.render(doc, "json")


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    # ||F+|| off by a relative 1e-5, against the equality tolerance 1e-6, flips the gap verdict
    l2_sd_norms = quad4.l2_sd_norms
    monkeypatch.setattr(quad4, "l2_sd_norms",
                        lambda p: tuple((1 + 1e-5) * n for n in l2_sd_norms(p)))
    code = cli.main(["--format", "json", "gap"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap_report"]["verdict"] != "equality"


def test_cli_constants_exports_values(capsys):
    assert cli.main(["--format", "json", "constants"]) == 0
    doc = json.loads(capsys.readouterr().out)
    vals = doc["constants"]
    assert abs(vals["su2"]["gamma0"] - np.sqrt(2)) < 1e-6
    assert abs(vals["su2"]["gamma1"] - liealg.GAMMA1_SU2) < 1e-5
    assert abs(vals["so3"]["gamma1"] - liealg.GAMMA1_SO3) < 1e-5
    assert vals["su2"]["gamma0_converged"] is True
    for name in ("su2", "so3"):
        for g in ("gamma0", "gamma1"):
            iterations, restart = vals[name][f"{g}_iterations"], vals[name][f"{g}_restart"]
            assert type(iterations) is int and 1 <= iterations <= liealg._MAX_ITER
            assert type(restart) is int and restart >= 0


def test_cli_constants_runs_each_search_once(monkeypatch, capsys):
    calls = {"gamma0_estimate": 0, "gamma1_estimate": 0}
    for name in calls:
        original = getattr(liealg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(liealg, name, counted)
    assert cli.main(["--format", "json", "constants"]) == 0
    assert calls == {"gamma0_estimate": 2, "gamma1_estimate": 3}


def test_gamma_constants_suite_objective_calls(monkeypatch):
    # one objective call per ascent loop, so this counts the loops without a clock;
    # the rows are the points evaluated over all of a run's calls
    ascent, calls, rows = liealg._sphere_ascent, [0], [0]

    def counted(objective, starts):
        def objective_counted(z):
            calls[0] += 1
            rows[0] += len(z)
            return objective(z)
        return ascent(objective_counted, starts)

    monkeypatch.setattr(liealg, "_sphere_ascent", counted)
    per_run = {}
    # seeds 0-23 and the benchmark pass seed pass_seed(4, 223), a slow one before
    for seed in [*range(24), 1974316079]:
        calls[0] = rows[0] = 0
        assert report.run_suite("gamma-constants", report.GapConfig(seed=seed)).passed
        per_run[seed] = (calls[0], rows[0])
    assert max(c for c, _ in per_run.values()) <= 80, per_run
    assert max(r for _, r in per_run.values()) <= 2000, per_run


# parsed values each README command line must produce, by subcommand
README_EXPECTED = {
    'all': {},
    'gap': {'format': 'json'},
    'constants': {'seed': 3},
    'energy': {'scale': 0.5, 'center': (1.0, 0.0, 0.0, 0.0)},
    'kato': {},
    'thresholds': {},
    'flow-check': {},
}


def _readme_text():
    return (Path(__file__).resolve().parent.parent / 'README.md').read_text()


def _readme_command_lines():
    text = _readme_text()
    block = text.split('## Command line', 1)[1].split('```sh', 1)[1].split('```', 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip().startswith('ymgap ')]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert sorted(argv[1] for argv in lines) == sorted(README_EXPECTED)
    parser = cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
        for key, value in README_EXPECTED[args.command].items():
            assert getattr(args, key) == value, (argv, key)


_NUMBER_WORDS = {'three': 3, 'five': 5, 'six': 6, 'seven': 7, 'eight': 8, 'nine': 9, 'ten': 10}


def test_readme_common_flags_are_the_parser():
    """The README's "Common flags:" sentence names exactly the shared flags,
    and its field count is that of GapConfig."""
    text = ' '.join(_readme_text().split())
    sentence = text.split('Common flags: ', 1)[1].split('. ', 1)[0]
    named = {token.split()[0] for token in re.findall(r'`([^`]+)`', sentence)}
    flags = {option for action in cli.build_parser()._actions for option in action.option_strings}
    assert named == flags - {'-h', '--help'}
    count = re.search(r'the (\w+) fields of `ymgap\.report\.GapConfig`', text).group(1)
    assert _NUMBER_WORDS[count] == len(dataclasses.fields(report.GapConfig))


# public functions of ymgap that the README command lines need not call, with the reason
NOT_REACHED = {
    'report.run_all': "the Python end-to-end entry point; the command line runs its suites "
                      "one by one through run_suite",
}


def _public_functions():
    """{'module.name' or 'module.Class.name': code object} of every public
    function and method defined in the seven modules of ymgap."""
    out = {}
    for module in (cli, conformal, forms4, instanton, liealg, quad4, report):
        short = module.__name__.split('.')[-1]
        for name, obj in vars(module).items():
            if name.startswith('_') or getattr(obj, '__module__', None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[f'{short}.{name}'] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, 'fget', getattr(member, '__func__', member))
                    if not attr.startswith('_') and inspect.isfunction(fn):
                        out[f'{short}.{name}.{attr}'] = fn.__code__
    return out


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every README command line exits 0, and together they call every
    public function and method of the package but those in NOT_REACHED."""
    monkeypatch.chdir(tmp_path)            # the report is the only output: no line writes a file
    called = set()

    def record(frame, event, arg):
        if event == 'call':
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        failed = [argv for argv in _readme_command_lines() if cli.main(argv[1:]) != 0]
    finally:
        sys.setprofile(previous)
    assert not failed, failed
    capsys.readouterr()
    assert not any(tmp_path.iterdir())
    unreached = {name for name, code in _public_functions().items() if code not in called}
    assert unreached == set(NOT_REACHED), "not called: " + ", ".join(sorted(unreached))


def test_cli_common_flags_either_side_of_subcommand():
    parser = cli.build_parser()
    before = parser.parse_args(['--seed', '5', '--format', 'json', 'constants'])
    after = parser.parse_args(['constants', '--seed', '5', '--format', 'json'])
    assert vars(before) == vars(after)
    assert before.seed == 5 and before.format == 'json' and before.scale == 1.0
    assert parser.parse_args(['--lambda', '2', 'thresholds']).scale == 2.0
    assert parser.parse_args(['--seed', '5', 'gap', '--seed', '7']).seed == 7
    mixed = parser.parse_args(['--lambda', '2', 'gap', '--seed', '3'])
    assert (mixed.scale, mixed.command, mixed.seed) == (2.0, 'gap', 3)


@pytest.mark.parametrize("argv", [pytest.param(['--help'], id="help"),
                                  pytest.param(['gap', '--help'], id="gap-help")])
def test_cli_help_names_every_command_and_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    flags = [option for action in cli.build_parser()._actions for option in action.option_strings]
    assert all(word in out for word in (*cli._COMMAND_SUITES, *flags))


def test_cli_negative_center_needs_equals_form():
    parser = cli.build_parser()
    before = parser.parse_args(['--center=-1,0,0,0', 'eigen'])
    after = parser.parse_args(['eigen', '--center=-1,0,0,0'])
    assert before.center == after.center == (-1.0, 0.0, 0.0, 0.0)


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "ymgap.cli",
                           "--format", "csv", "yamabe"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "suite,check,passed,residual,tolerance"


# the package's layers: each module and the package modules it imports;
# forms4 and conformal stay at the bottom
LAYERS = {
    'forms4': set(),
    'conformal': set(),
    'liealg': {'forms4'},
    'instanton': {'forms4', 'liealg'},
    'quad4': {'instanton', 'liealg'},
    'report': {'conformal', 'forms4', 'instanton', 'liealg', 'quad4'},
    'cli': {'report'},
}


def _package_imports(module):
    """The package modules named by a module's ``from . import`` and
    ``from .x import`` statements, at any depth of its source."""
    out = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module.split('.')[0]} if node.module else {a.name for a in node.names}
    return out


def test_modules_import_only_their_layers():
    modules = (cli, conformal, forms4, instanton, liealg, quad4, report)
    assert {m.__name__.split('.')[-1]: _package_imports(m) for m in modules} == LAYERS


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    code = ("import sys, ymgap.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [dep.split(">")[0] for dep in dependencies] == ["numpy"]
