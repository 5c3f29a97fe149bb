"""Gap reports, thresholds, flow predicate, suites, CLI."""

import inspect
import json
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
        report.GapConfig(group="e8")
    for kwargs in ({"w_plus_l2": -1.0}, {"yamabe": 0.0}, {"tol": 0.0}):
        with pytest.raises(report.ConfigError):
            report.gap_inequality(4 * np.pi, liealg.GAMMA1_SU2, **kwargs)
    for f_plus, gamma1 in ((-1.0, liealg.GAMMA1_SU2), (4 * np.pi, 0.0),
                           (4 * np.pi, liealg.GAMMA1_MAX * (1 + 1e-9))):
        with pytest.raises(report.ConfigError):
            report.gap_inequality(f_plus, gamma1)


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


@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_scale_free_checks_pass_at_every_scale(scale):
    # the pointwise suites are measured in the instanton's units, so their
    # absolute tolerances hold at any scale
    cfg = report.GapConfig(scale=scale)
    for name in ("kato", "bochner", "bracket-sharpness"):
        result = report.run_suite(name, cfg)
        assert result.passed, (scale, [c for c in result.checks if not c.passed])


def test_covariance_suite_traced_peak():
    # the suite tabulates its three cos modes, 1.5 MiB at n = 65536; route (b) and
    # the cotangent Laplacian are built in place to pay for them. Measured 6.50 MiB;
    # either one out of place reads 7.00, as did the per-sample cosines
    report.run_suite("covariance")
    tracemalloc.start()
    try:
        report.run_suite("covariance")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.75 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


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
    ('covariance', 'covariance-20-random', 1e-06),
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
    'thresholds': {'general', 'weak_universal', 'kappa_abs'},
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
    # the instanton is su(2)-valued whatever --group says, so so3 is equality too
    assert cli.main(["--group", "so3", "--format", "json", "gap"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap_report"]["verdict"] == "equality"
    assert doc["gap_report"]["gamma1"] == liealg.GAMMA1_SU2


def test_cli_thresholds_and_flow(capsys):
    assert cli.main(["--format", "text", "thresholds"]) == 0
    text = capsys.readouterr().out
    assert "thresholds" in text
    assert cli.main(["--group", "so3", "--format", "json", "thresholds"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["thresholds"]["general"] - 80 * PI2) < 1e-9
    assert cli.main(["flow-check", "--energy", str(16 * PI2)]) == 0
    doc_text = capsys.readouterr().out
    assert "admissible" in doc_text


def test_cli_flow_check_json(capsys):
    assert cli.main(["--format", "json", "flow-check", "--energy", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flow"]["admissible"] is True
    assert doc["flow"]["energy_source"] == "configured"


@pytest.mark.parametrize("flags", [["--rmax", "20"], ["--lambda", "4", "--rmax", "20"]])
def test_cli_flow_gate_rejects_instanton_on_short_grid(flags, capsys):
    # the short grid lands the instanton's energy just below 16 pi^2
    assert cli.main(["--format", "json", *flags, "flow-check"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["flow"]["energy"] < 16 * PI2
    failed = [c["name"] for s in doc["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["gate-rejects-instanton"]


@pytest.mark.parametrize("flags, admissible", [
    ([], False), (["--energy", "157.0"], True), (["--energy", repr(16 * PI2)], False)])
def test_cli_flow_check_verdicts(flags, admissible, capsys):
    assert cli.main(["--format", "json", "flow-check", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["flow"]["admissible"] is admissible


@pytest.mark.parametrize("flags, cfg", [
    ([], report.GapConfig()),
    (["--lambda", "0.5", "--center=1,0,0,0", "--rmax", "1e4"],
     report.GapConfig(scale=0.5, center=(1.0, 0.0, 0.0, 0.0), rmax=1e4))])
def test_cli_energy_reports_convergence_table(flags, cfg, capsys):
    assert cli.main(["--format", "json", *flags, "energy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == cfg.to_dict()
    rows = doc["energy_convergence"]
    panels = quad4.panel_count(cfg.rmax, cfg.scale)
    assert [row["panels"] for row in rows] == sorted({8, 12, 16, 24, panels})
    row = next(row for row in rows if row["panels"] == panels)
    assert row["energy"] == quad4.ym_energy(cfg.instanton_params(), cfg.grid())


def test_grid_rule_resolves_every_scale_and_rmax():
    # the default is the 24-panel grid, node for node
    rule, fixed = report.GapConfig().grid(), quad4.RadialGrid.make(panels=24)
    assert np.array_equal(rule.nodes, fixed.nodes) and np.array_equal(rule.weights, fixed.weights)
    # the first panel ends at 0.25 scale and the panels grow with rmax, so
    # narrow members and long grids keep the grid checks
    for scale, rmax in ((0.02, 1000.0), (0.005, 1e38), (20.0, 1e20)):
        cfg = report.GapConfig(scale=scale, rmax=rmax)
        for name in ("energy", "chern-weil", "gap", "flow-check"):
            result = report.run_suite(name, cfg)
            assert result.passed, (scale, rmax, [c for c in result.checks if not c.passed])


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
    ["--lambda", "1e-30", "gap"],            # the suites' arithmetic would overflow
    ["thresholds", "--kappa", "-1"],
    ["--rmax", "0.1", "energy"],
    ["--tol", "-1", "gap"],
    ["--tol", "0", "gap"],
    ["flow-check", "--energy", "-1"],
    ["--rmax", "1e80", "gap"],               # the tail mass rmax^4/4 would overflow
    ["--rmax", "1e39", "energy"],            # the norm law's (scale^2 + s)^4 would overflow
    ["thresholds", "--kappa", "1e308"],      # the thresholds overflow
    ["--out", "{missing}/report.json", "eigen"],
])
def test_cli_out_of_range_input_is_config_error(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "no-such-dir") for arg in argv]   # unwritable paths
    assert cli.main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kwargs", [{"scale": -1.0}, {"rmax": 1e39}, {"rmax": 0.1},
                                    {"tol": 0.0}, {"tol": -1e-6},
                                    {"center": (1.0, 2.0)}, {"kappa": -1.0},
                                    {"energy": -1.0}, {"kappa": 1e307}])
def test_gap_config_rejects_what_lower_layers_reject(kwargs):
    with pytest.raises(report.ConfigError):
        report.GapConfig(**kwargs)


@pytest.mark.parametrize("field", ["scale", "rmax", "tol", "kappa"])
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


# parsed values each README command line must produce, by subcommand
README_EXPECTED = {
    'all': {},
    'gap': {'format': 'json'},
    'constants': {'seed': 3},
    'energy': {'scale': 0.5, 'center': (1.0, 0.0, 0.0, 0.0)},
    'kato': {},
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
