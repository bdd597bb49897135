"""The repository's pytest configuration, run on a probe suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Every warning is an error in this suite, yet a falsified example
    is reported as one failure and the session goes on: hypothesis's
    report hook imports libcst, and the deprecation that import raises
    must not end the run in an INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


def test_a_bare_checkout_finds_the_package():
    """pytest run from the repository root, with no PYTHONPATH, imports
    the package from src."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "tests/test_record.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout, done.stdout
