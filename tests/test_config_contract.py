"""The configuration contract, over random configurations.

Every valid configuration the command line can express ends in a verdict
(exit 0 or 1) with strict JSON; every configuration with one invalid field
is a configuration error (exit 2, a message, no traceback). ``GapConfig``
holds exactly the values the command line sets.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from ymgap import cli, report

# flags that shape the output, not the configuration
OUTPUT_DESTS = {'help', 'command', 'format', 'out'}
# configuration fields only one subcommand sets
SUBCOMMAND_FIELDS = {'kappa': 'thresholds', 'energy': 'flow-check'}
COMMANDS = ('gap', 'thresholds', 'flow-check')

# per field, flags that make it invalid (joined form, so '-1' is not read as an option)
INVALID = {
    'group': ['--group=e8', '--group=SU2'],
    'scale': ['--lambda=0', '--lambda=-1', '--lambda=nan', '--lambda=inf'],
    'center': ['--center=0,nan,0,0', '--center=-inf,0,0,0'],
    'rmax': ['--rmax=0.25', '--rmax=-1', '--rmax=nan', '--rmax=inf'],
    'seed': ['--seed=-1'],
    'tol': ['--tol=0', '--tol=-1e-6', '--tol=nan', '--tol=inf'],
    'kappa': ['--kappa=-1', '--kappa=nan', '--kappa=inf'],
    'energy': ['--energy=-1', '--energy=nan', '--energy=-inf'],
}


def _config_dests():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in (parser, *sub.choices.values()) for a in p._actions} - OUTPUT_DESTS


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _valid_flags(rng):
    """One random valid value per configuration field, as command-line flags."""
    center = ','.join(repr(float(c)) for c in rng.uniform(-2.0, 2.0, 4))
    return {
        'group': [f"--group={rng.choice(['su2', 'so3'])}"],
        'scale': [f"--lambda={_log_uniform(rng, 1e-3, 1e3)!r}"],
        'center': [f"--center={center}"],
        'rmax': [f"--rmax={_log_uniform(rng, 0.3, 1e4)!r}"],
        'seed': [f"--seed={rng.integers(0, 2 ** 31)}"],
        'tol': [f"--tol={_log_uniform(rng, 1e-12, 1.0)!r}"],
        'kappa': [f"--kappa={rng.uniform(0.0, 4.0)!r}"],
        # half the draws leave the energy unset: flow-check computes it
        'energy': [f"--energy={rng.uniform(0.0, 400.0)!r}"] if rng.random() < 0.5 else [],
    }


def _argv(flags, command):
    common = [f for name, fs in flags.items() if name not in SUBCOMMAND_FIELDS for f in fs]
    own = [f for name, fs in flags.items() if SUBCOMMAND_FIELDS.get(name) == command for f in fs]
    return ['--format', 'json', *common, command, *own]


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
        assert cli.main(argv) in (0, 1), argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        doc = _strict_json(captured.out)
        assert set(doc['config']) == set(INVALID)


@pytest.mark.parametrize("field, flag", [(f, v) for f, vs in INVALID.items() for v in vs])
def test_one_invalid_field_is_a_config_error(field, flag, capsys):
    rng = np.random.default_rng([10, list(INVALID).index(field), INVALID[field].index(flag)])
    flags = _valid_flags(rng)
    flags[field] = [flag]
    command = SUBCOMMAND_FIELDS.get(field) or COMMANDS[rng.integers(len(COMMANDS))]
    assert cli.main(_argv(flags, command)) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
