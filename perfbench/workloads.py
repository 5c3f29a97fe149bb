"""The benchmark's workloads and the passes they run.

Every workload drives ``ymgap`` through a public entry point, in the
calling process. A pass takes its own seed; ``pass_seed`` derives it from
the benchmark's seed and the pass index, so the same seed gives the same
inputs.
"""

from __future__ import annotations

import importlib
import os
import random
import sys
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / 'src'
WORK_DIR = HERE / '.work'

POINTWISE_SUITES = ('kato', 'bochner', 'bracket-sharpness', 'weyl-bound',
                    'circ-basis', 'covariance', 'yamabe-quotient', 'eigenvalue')


def import_ymgap():
    """Import ``ymgap.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / 'ymgap' / 'cli.py').is_file():
        raise RuntimeError(f"no ymgap sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module('ymgap.cli')
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"ymgap imported from {cli.__file__}, not from {SRC}")
    return cli


def pass_seed(seed, index):
    """Seed of pass ``index`` of a run with benchmark seed ``seed``."""
    return random.Random(f"{seed}:{index}").randrange(2 ** 31)


class CliWorkload:
    """``ymgap.cli.main`` with JSON output to a file, common flags first."""

    def __init__(self, command, suite_ids=None):
        self.cli = import_ymgap()
        self.command = command
        self.suite_ids = suite_ids or importlib.import_module('ymgap.report').SUITE_IDS
        self.out = WORK_DIR / f"{command}-{os.getpid()}.json"

    def inputs(self, seed):
        return seed, ['--seed', str(seed), '--format', 'json', '--out', str(self.out),
                      self.command]

    def call(self, inputs):
        """Run the program; the part of a pass that is timed."""
        WORK_DIR.mkdir(exist_ok=True)
        if self.out.exists():
            self.out.unlink()
        try:
            return self.cli.main(inputs[1])
        except SystemExit as exc:
            return exc.code

    def check(self, inputs, exit_code):
        text = self.out.read_text() if self.out.exists() else None
        return checker.check_cli_report(exit_code, text, inputs[0], self.command,
                                        self.suite_ids)

    def close(self):
        if self.out.exists():
            self.out.unlink()


class SuitesWorkload:
    """``report.run_suite`` over a fixed list of suites."""

    def __init__(self, suite_ids):
        self.suite_ids = suite_ids
        import_ymgap()
        self.report = importlib.import_module('ymgap.report')

    def inputs(self, seed):
        cfg = self.report.GapConfig(seed=seed)
        return [(name, cfg) for name in self.suite_ids]

    def call(self, inputs):
        """Run the program; the part of a pass that is timed."""
        return [self.report.run_suite(name, cfg) for name, cfg in inputs]

    def check(self, inputs, results):
        return checker.check_suite_results(results, self.suite_ids)

    def close(self):
        pass


def make(name):
    """Import ymgap and build the named workload."""
    if name == 'report':
        return CliWorkload('all')
    if name == 'constants':
        return CliWorkload('constants', ('gamma-constants',))
    if name == 'pointwise':
        return SuitesWorkload(POINTWISE_SUITES)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ('report', 'constants', 'pointwise')
