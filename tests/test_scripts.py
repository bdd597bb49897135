"""Smoke runs of the example scripts, from the repository root as their
``sys.path`` setup expects."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("scripts/tot_ss_demo.py", "page 2 vs levelwise homology: agrees"),
    ("scripts/deloop_survey.py", "all certified bounds match"),
])
def test_script_runs_and_agrees(script, expected):
    done = subprocess.run(
        [sys.executable, script], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
