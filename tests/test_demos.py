"""Each demo script runs clean and prints its narrative.

A numpy overflow or invalid value fails a demo, as it fails a test."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) > 5
