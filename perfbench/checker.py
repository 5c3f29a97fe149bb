"""Correctness checks for one benchmark pass.

A pass counts as failed when any check here reports a problem. The checks
read only deterministic parts of the output: report bytes are never
compared across runs, and the ``gamma0-runtime`` residual (a wall-clock
time) is never read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SCHEMA = "ymgap-report/1"

# Pinned tolerances of the gamma-constants suite.
GAMMA_TARGETS = {
    'su2': {'gamma0': (math.sqrt(2.0), 1e-6), 'gamma1': (4.0 / math.sqrt(6.0), 1e-5)},
    'so3': {'gamma0': (1.0, 1e-6), 'gamma1': (2.0 / math.sqrt(3.0), 1e-5)},
}


@dataclass
class Verdict:
    """Problems found in one pass, plus the number of checks it carried."""

    problems: list = field(default_factory=list)
    checks: int = 0
    checks_failed: int = 0

    @property
    def ok(self):
        return not self.problems


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON output")


def parse_strict_json(text):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _check_suite_list(verdict, suites, suite_ids):
    """Every id in ``suite_ids`` present, passed, with at least one check."""
    by_id = {}
    for suite in suites:
        by_id[suite.get('suite')] = suite
        checks = suite.get('checks') or []
        verdict.checks += len(checks)
        verdict.checks_failed += sum(1 for c in checks if c.get('passed') is not True)
    for sid in suite_ids:
        suite = by_id.get(sid)
        if suite is None:
            verdict.problems.append(f"suite {sid!r} missing")
            continue
        checks = suite.get('checks') or []
        if suite.get('passed') is not True:
            verdict.problems.append(f"suite {sid!r} did not pass")
        if not checks:
            verdict.problems.append(f"suite {sid!r} has no checks")
        for c in checks:
            if c.get('passed') is not True:
                verdict.problems.append(f"check {sid}/{c.get('name')} failed")


def _check_constants(verdict, doc):
    constants = doc.get('constants')
    if not isinstance(constants, dict):
        verdict.problems.append("constants section missing")
        return
    for group, targets in GAMMA_TARGETS.items():
        values = constants.get(group) or {}
        for key, (target, tol) in targets.items():
            value = values.get(key)
            if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
                verdict.problems.append(
                    f"constants.{group}.{key} = {value!r}, want {target!r} within {tol}")


def check_cli_report(exit_code, text, seed, command, suite_ids):
    """Check one ``ymgap --seed S --format json --out F <command>`` run.

    ``text`` is the content of the output file, or None when the run wrote
    none.
    """
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code!r}, want 0")
    if text is None:
        verdict.problems.append("no report written")
        return verdict
    try:
        doc = parse_strict_json(text)
    except ValueError as exc:
        verdict.problems.append(f"report is not strict JSON: {exc}")
        return verdict
    if not isinstance(doc, dict):
        verdict.problems.append("report is not a JSON object")
        return verdict
    if doc.get('schema') != SCHEMA:
        verdict.problems.append(f"schema {doc.get('schema')!r}, want {SCHEMA!r}")
    if doc.get('command') != command:
        verdict.problems.append(f"command {doc.get('command')!r}, want {command!r}")
    config_seed = (doc.get('config') or {}).get('seed')
    if type(config_seed) is not int or config_seed != seed:
        verdict.problems.append(f"config.seed {config_seed!r}, want {seed}")
    _check_suite_list(verdict, doc.get('suites') or [], suite_ids)
    if command == 'constants':
        _check_constants(verdict, doc)
    return verdict


def check_suite_results(results, suite_ids):
    """Check the ``SuiteResult`` objects of a ``report.run_suite`` sequence."""
    suites = [{'suite': r.suite, 'passed': bool(r.passed),
               'checks': [{'name': c.name, 'passed': bool(c.passed)} for c in r.checks]}
              for r in results]
    verdict = Verdict()
    if len(suites) != len(suite_ids):
        verdict.problems.append(f"{len(suites)} suite results, want {len(suite_ids)}")
    _check_suite_list(verdict, suites, suite_ids)
    return verdict
