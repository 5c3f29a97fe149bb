"""The configuration contract, over random configurations.

Every valid configuration the command line can express passes the
``gap``, ``thresholds`` and ``flow-check`` checks (exit 0) with strict
JSON and keeps every pinned tolerance; every configuration with one invalid
field is a configuration error (exit 2, a message, no traceback).
``GapConfig`` holds exactly the values the command line sets.
"""

import dataclasses
import json

import numpy as np
import pytest

from test_report import PINNED_TOLERANCES
from ymgap import cli, report

# flags that shape the output, not the configuration
OUTPUT_DESTS = {'help', 'command', 'format', 'out'}
COMMANDS = ('gap', 'thresholds', 'flow-check')

# per field, flags that make it invalid (joined form, so '-1' is not read as an option)
INVALID = {
    'scale': ['--lambda=0', '--lambda=-1', '--lambda=nan', '--lambda=inf'],
    # 1e10 is beyond 1e6 * lambda, the farthest center, for every drawn lambda
    'center': ['--center=0,nan,0,0', '--center=-inf,0,0,0', '--center=1e10,0,0,0'],
    'seed': ['--seed=-1'],
}


def _config_dests():
    return {a.dest for a in cli.build_parser()._actions} - OUTPUT_DESTS


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _valid_flags(rng):
    """One random valid value per configuration field, as command-line flags."""
    center = ','.join(repr(float(c)) for c in rng.uniform(-2.0, 2.0, 4))
    return {
        'scale': [f"--lambda={_log_uniform(rng, 1e-3, 1e3)!r}"],
        'center': [f"--center={center}"],
        'seed': [f"--seed={rng.integers(0, 2 ** 31)}"],
    }


def _argv(flags, command):
    return ['--format', 'json', *(f for fs in flags.values() for f in fs), command]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_config_fields_are_the_command_line():
    fields = [f.name for f in dataclasses.fields(report.GapConfig)]
    assert set(fields) == _config_dests()
    assert fields == list(INVALID) == list(_valid_flags(np.random.default_rng(0)))


@pytest.mark.parametrize("draw", range(30))
def test_random_valid_config_reaches_a_verdict(draw, capsys):
    flags = _valid_flags(np.random.default_rng([9, draw]))
    for command in COMMANDS:
        argv = _argv(flags, command)
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        doc = _strict_json(captured.out)
        assert set(doc['config']) == set(INVALID)


@pytest.mark.parametrize("draw", range(3))
def test_no_flag_moves_a_tolerance(draw, capsys):
    flags = _valid_flags(np.random.default_rng([11, draw]))
    cli.main(_argv(flags, 'all'))
    doc = _strict_json(capsys.readouterr().out)
    rows = [(s['suite'], c['name'], c['tolerance']) for s in doc['suites'] for c in s['checks']]
    assert rows == PINNED_TOLERANCES, flags


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_farthest_center_passes_every_check(scale, capsys):
    # |center| = 1e6 * lambda is the farthest center a configuration may have
    argv = ['--format', 'json', f"--lambda={scale!r}", f"--center={1e6 * scale!r},0,0,0", 'all']
    assert cli.main(argv) == 0, argv
    assert capsys.readouterr().err == "", argv


@pytest.mark.parametrize("field, flag", [(f, v) for f, vs in INVALID.items() for v in vs])
def test_one_invalid_field_is_a_config_error(field, flag, capsys):
    rng = np.random.default_rng([10, list(INVALID).index(field), INVALID[field].index(flag)])
    flags = _valid_flags(rng)
    flags[field] = [flag]
    command = COMMANDS[rng.integers(len(COMMANDS))]
    assert cli.main(_argv(flags, command)) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
