"""Gap reports, thresholds, flow predicate, suites, CLI."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ymgap import cli, conformal, liealg, quad4, report

PI2 = np.pi ** 2


def test_gap_report_equality_case():
    rep = report.gap_report(report.GapConfig())
    assert rep.verdict == "equality"
    assert abs(rep.slack) / rep.yamabe < 1e-6
    assert abs(rep.lhs - 8 * np.sqrt(6) * np.pi) < 1e-10
    assert abs(rep.rhs - 3 * liealg.GAMMA1_SU2 * 4 * np.pi) / rep.rhs < 1e-7
    assert rep.equality_residual is not None and rep.equality_residual < 1e-8


def test_gap_report_flat_and_violated():
    flat = report.gap_report(report.GapConfig(connection="flat"))
    assert flat.verdict == "case-1"
    synth = report.gap_report(report.GapConfig(f_plus_l2_override=1.0))
    assert synth.verdict == "strict-gap-violated"
    assert synth.slack < 0
    big = report.gap_report(report.GapConfig(f_plus_l2_override=100.0))
    assert big.verdict == "inequality-holds"


def test_gap_report_rhs_closure_and_provenance():
    rep = report.gap_report(report.GapConfig())
    recomputed = 3.0 * rep.gamma1 * rep.f_plus_l2 + 2.0 * np.sqrt(6.0) * rep.w_plus_l2
    assert rep.rhs == recomputed            # bit-exact recomposition
    for key in ("yamabe", "gamma1", "f_plus_l2", "w_plus_l2", "lhs", "rhs", "slack"):
        assert key in rep.provenance
    assert rep.provenance["gamma1"] == "paper-constant"
    est = report.gap_report(report.GapConfig(gamma1_source="estimate"))
    assert est.provenance["gamma1"] == "computed"
    assert abs(est.gamma1 - liealg.GAMMA1_SU2) < 1e-5


def test_gap_config_validation():
    with pytest.raises(report.ConfigError):
        report.GapConfig(group="e8")
    with pytest.raises(report.ConfigError):
        report.GapConfig(w_plus_l2=-1.0)
    with pytest.raises(report.ConfigError):
        report.GapConfig(yamabe=0.0)
    with pytest.raises(report.ConfigError):
        report.GapConfig(gamma1_source="guess")


def test_corollary_thresholds():
    thr = report.corollary_thresholds("su2", 1.0, conformal.YAMABE_S4, liealg.GAMMA1_SU2)
    assert abs(thr.general - 48 * PI2) < 1e-9
    assert abs(thr.specialized - 48 * PI2) < 1e-9
    thr3 = report.corollary_thresholds("so3", 1.0, conformal.YAMABE_S4, liealg.GAMMA1_SO3)
    assert abs(thr3.specialized - 80 * PI2) < 1e-9
    assert abs(thr3.general - 80 * PI2) < 1e-9
    # at gamma1 = 4/sqrt(6) the general bound degenerates to the weak one
    assert abs(thr.general - thr.weak_universal) < 1e-9
    with pytest.raises(report.ConfigError):
        report.corollary_thresholds("su2", -1.0, 1.0, 1.0)
    with pytest.raises(report.ConfigError):
        report.corollary_thresholds("su2", 1.0, -1.0, 1.0)


def test_flow_admissible():
    assert report.flow_admissible(0.0) is True
    assert report.flow_admissible(16 * PI2) is False
    assert report.flow_admissible(15.9 * PI2) is True
    computed = quad4.ym_energy(report.GapConfig().instanton_params())
    assert report.flow_admissible(computed) is False
    with pytest.raises(report.ConfigError):
        report.flow_admissible(-1.0)


def test_run_suite_unknown_id():
    with pytest.raises(report.ConfigError, match="gamma-constants"):
        report.run_suite("nope")


@pytest.mark.parametrize("name", ["circ-basis", "weyl-bound", "bracket-sharpness",
                                  "chern-weil", "eigenvalue", "gap", "thresholds",
                                  "flow-check"])
def test_individual_suites_pass(name):
    result = report.run_suite(name)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.runtime >= 0.0


def test_gap_suite_flat_comparison_keeps_config():
    # the flat comparison must reuse the configuration, not rebuild a default one
    cfg = report.GapConfig(group=liealg.AlgebraSpec.su2_real(), gamma1_source="estimate")
    result = report.run_suite("gap", cfg)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.sections["gap_report"]["provenance"]["gamma1"] == "computed"


# top-level sections and their inner keys, by the suite that owns them
SECTION_KEYS = {
    'constants': {'su2', 'so3'},
    'gap_report': {'yamabe', 'gamma1', 'f_plus_l2', 'w_plus_l2', 'lhs', 'rhs', 'slack',
                   'verdict', 'equality_residual', 'provenance'},
    'thresholds': {'general', 'specialized', 'weak_universal', 'kappa_abs'},
    'flow': {'energy', 'energy_source', 'threshold', 'admissible', 'note'},
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


def test_cli_gap_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["--format", "json", "--out", str(out), "gap"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "gap"
    assert doc["gap_report"]["verdict"] == "equality"
    prov = doc["gap_report"]["provenance"]
    assert prov["f_plus_l2"] == "computed"


def test_cli_thresholds_and_flow(capsys):
    assert cli.main(["--format", "text", "thresholds"]) == 0
    text = capsys.readouterr().out
    assert "thresholds" in text
    assert cli.main(["--group", "so3", "--format", "json", "thresholds"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["thresholds"]["specialized"] - 80 * PI2) < 1e-9
    assert cli.main(["flow-check", "--energy", str(16 * PI2)]) == 0
    doc_text = capsys.readouterr().out
    assert "admissible" in doc_text


def test_cli_flow_check_json(capsys):
    assert cli.main(["--format", "json", "flow-check", "--energy", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flow"]["admissible"] is True
    assert doc["flow"]["energy_source"] == "configured"


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


@pytest.mark.parametrize("argv", [
    ["flow-check", "--energy", "nan"],
    ["thresholds", "--kappa", "inf"],
    ["--tol", "nan", "gap"],
    ["--lambda", "nan", "gap"],
    ["--rmax", "inf", "energy"],
])
def test_cli_non_finite_input_is_config_error(argv, capsys):
    assert cli.main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--lambda", "-1", "gap"],
    ["--lambda", "0", "gap"],
    ["--grid-panels", "0", "energy"],
    ["--rmax", "0.1", "energy"],
    ["--tol", "-1", "gap"],
    ["--tol", "0", "gap"],
    ["--grid-panels", "1", "energy"],
])
def test_cli_out_of_range_input_is_config_error(argv, capsys):
    assert cli.main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kwargs", [{"scale": -1.0}, {"panels": 0}, {"rmax": 0.1},
                                    {"tol": 0.0}, {"tol": -1e-6},
                                    {"center": (1.0, 2.0)}, {"panels": 1}])
def test_gap_config_rejects_what_lower_layers_reject(kwargs):
    with pytest.raises(report.ConfigError):
        report.GapConfig(**kwargs)


@pytest.mark.parametrize("field", ["w_plus_l2", "yamabe", "scale", "f_plus_l2_override",
                                   "rmax", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_gap_config_rejects_non_finite(field, value):
    with pytest.raises(report.ConfigError, match=field):
        report.GapConfig(**{field: value})


def test_gap_config_rejects_non_finite_center():
    with pytest.raises(report.ConfigError, match="center"):
        report.GapConfig(center=(0.0, float("nan"), 0.0, 0.0))


def test_render_json_is_strict():
    doc = {"schema": report.SCHEMA, "value": float("nan")}
    with pytest.raises(ValueError):
        report.render(doc, "json")


def test_cli_check_failure_exit_code(capsys):
    # a short grid under a tight equality tolerance flips the gap verdict
    code = cli.main(["--rmax", "20", "--tol", "1e-9", "--format", "json", "gap"])
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


def test_gap_suite_runs_gamma1_search_once(monkeypatch):
    calls = []
    original = liealg.gamma1_estimate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(liealg, "gamma1_estimate", counted)
    res = report.run_suite("gap", report.GapConfig(gamma1_source="estimate"))
    assert res.passed
    assert len(calls) == 1
    assert res.sections["gap_report"]["provenance"]["gamma1"] == "computed"


# parsed values each README command line must produce, by subcommand
README_EXPECTED = {
    'all': {},
    'gap': {'format': 'json'},
    'constants': {'seed': 3},
    'energy': {'scale': 0.5, 'center': (1.0, 0.0, 0.0, 0.0),
               'convergence_table': 'table.csv'},
    'kato': {'samples_csv': 'pts.csv'},
    'thresholds': {'group': 'so3'},
    'flow-check': {'energy': 157.0},
}


def _readme_command_lines():
    text = (Path(__file__).resolve().parent.parent / 'README.md').read_text()
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


def test_cli_common_flags_either_side_of_subcommand():
    parser = cli.build_parser()
    before = parser.parse_args(['--seed', '5', '--format', 'json', 'constants'])
    after = parser.parse_args(['constants', '--seed', '5', '--format', 'json'])
    assert vars(before) == vars(after)
    assert before.seed == 5 and before.format == 'json' and before.group == 'su2'
    assert parser.parse_args(['--group', 'so3', 'thresholds', '--kappa', '2']).group == 'so3'
    assert parser.parse_args(['--seed', '5', 'gap', '--seed', '7']).seed == 7


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
