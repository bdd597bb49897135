"""Smoke runs of the example scripts, from the repository root as their
``sys.path`` setup expects, and of the per-layer bench tracer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from constructions_reference import cech_object, cosimplicial_to_data

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


def test_bench_tracer_hooks_still_count(tmp_path):
    """bench/tracer.py counts matrices by rebinding
    IntMatrix.__post_init__ and spans by rebinding public names.  The
    report takes both tables from one reduction of the coded faces, which
    builds the three residuals and no chain complex."""
    space = tmp_path / "K.json"
    space.write_text(json.dumps({"facets": [[0, 1, 2], [2, 3]]}))
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, "bench/tracer.py", str(out), "homology", str(space)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["intlinalg.matrices_built"] == 3
    assert metrics["simplicial.reduced_homology_calls"] == 1
    assert metrics["chains.calls"] == 1
    assert metrics["chains.homology_calls"] == 0


def test_bench_tracer_wraps_names_imported_in_a_command(tmp_path):
    """The command-line layer imports each layer inside the command that
    uses it; the tracer's spans must still wrap those names."""
    obj = tmp_path / "cech.json"
    obj.write_text(json.dumps(cosimplicial_to_data(cech_object(2, 2))))
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, "bench/tracer.py", str(out), "tot", str(obj)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["cosimplicial.conormalize_s"] > 0
    assert metrics["cosimplicial.calls"] > 0
