"""Self-test of the benchmark: the checker rejects doctored outputs, the
tracer derives self time from its spans, one short pass of each workload
passes, and the run's output matches BENCHMARK.json.

Run with: python3 -m pytest -q perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

workloads.import_ymgap()
from ymgap import report  # noqa: E402

SPEC = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
SEED = 7


def _doc(command='all', suite_ids=report.SUITE_IDS):
    return {
        'schema': checker.SCHEMA, 'command': command, 'config': {'seed': SEED},
        'suites': [{'suite': sid, 'passed': True,
                    'checks': [{'name': 'c', 'passed': True, 'residual': 0.0,
                                'tolerance': 1.0}]}
                   for sid in suite_ids],
    }


def _check_all(doc, exit_code=0):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return checker.check_cli_report(exit_code, text, SEED, 'all', report.SUITE_IDS)


def _failed_check(doc):
    doc['suites'][3]['checks'][0]['passed'] = False
    return doc


def _wrong_seed(doc):
    doc['config']['seed'] = SEED + 1
    return doc


def _nan(doc):
    doc['suites'][0]['checks'][0]['residual'] = float('nan')
    return json.dumps(doc)


def _missing_suite(doc):
    del doc['suites'][-1]
    return doc


def test_valid_report_accepted():
    verdict = _check_all(_doc())
    assert verdict.ok, verdict.problems
    assert verdict.checks == len(report.SUITE_IDS)


@pytest.mark.parametrize('doctor', [_failed_check, _wrong_seed, _nan, _missing_suite])
def test_doctored_report_rejected(doctor):
    assert not _check_all(doctor(copy.deepcopy(_doc()))).ok


@pytest.mark.parametrize('exit_code', [1, 2])
def test_nonzero_exit_rejected(exit_code):
    assert not _check_all(_doc(), exit_code=exit_code).ok


def test_constants_values_checked():
    doc = _doc('constants', ('gamma-constants',))
    doc['constants'] = {'su2': {'gamma0': math.sqrt(2.0), 'gamma1': 4.0 / math.sqrt(6.0)},
                        'so3': {'gamma0': 1.0, 'gamma1': 2.0 / math.sqrt(3.0)}}
    ok = checker.check_cli_report(0, json.dumps(doc), SEED, 'constants', ('gamma-constants',))
    assert ok.ok, ok.problems
    doc['constants']['so3']['gamma1'] += 2e-5
    bad = checker.check_cli_report(0, json.dumps(doc), SEED, 'constants', ('gamma-constants',))
    assert not bad.ok


def test_failed_suite_result_rejected():
    cfg = report.GapConfig(seed=SEED)
    results = [report.run_suite('circ-basis', cfg)]
    assert checker.check_suite_results(results, ('circ-basis',)).ok
    results[0].checks[0].passed = False
    results[0].passed = False
    assert not checker.check_suite_results(results, ('circ-basis',)).ok


def test_tracer_self_time_and_restore():
    mod = types.ModuleType('fake')

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.leaf()

    leaf.__module__ = outer.__module__ = 'fake'
    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer({'fake': mod})
    tracer.install()
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    assert mod.outer is outer and mod.leaf is leaf
    stats, _ = tracer.take()
    calls, incl, own = stats['fake.outer']
    assert calls == 1
    assert incl >= 0.03 and 0.01 <= own < incl - 0.015
    assert stats['fake.leaf'][0] == 1


def test_removed_function_gives_absent_metric():
    agg = layers.Aggregate()
    agg.add(1.0, {'liealg.comm2form': (4, 0.002, 0.002)}, {}, checker.Verdict(checks=3))
    values, _ = layers.layer_metrics(agg)
    assert values['liealg.comm2form.calls'] == 4
    assert values['liealg.comm2form.us_per_call'] == pytest.approx(500.0)
    assert 'liealg.gamma0_estimate.s' not in values
    assert values['report.checks'] == 3


@pytest.mark.parametrize('name', workloads.NAMES)
def test_short_pass_passes(name):
    workload = workloads.make(name)
    try:
        _, verdict = run.run_pass(workload, workloads.pass_seed(0, 0))
    finally:
        workload.close()
    assert verdict.ok, verdict.problems
    assert verdict.checks > 0 and verdict.checks_failed == 0


def test_metric_names_match_benchmark_json():
    assert [w['name'] for w in SPEC['workloads']] == list(workloads.NAMES)
    assert {m['name']: m['unit'] for m in SPEC['end_to_end']} == run.END_TO_END_UNITS
    assert {m['name']: m['unit'] for m in SPEC['per_layer']} == layers.METRIC_UNITS


@pytest.mark.parametrize('trace, section', [(0, 'end_to_end'), (1, 'per_layer')])
def test_run_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / 'run.py'), '--workload', 'pointwise', '--seed', '3',
         '--seconds', '1', '--trace', str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0 and result['attempted'] >= 1
    assert set(result['metrics']) == {m['name'] for m in SPEC[section]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / 'BENCHMARK.json', tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns('__pycache__', '.work'))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / 'run.py'), '--workload', 'report',
         '--seed', '0', '--seconds', '1', '--trace', '0'],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
