"""The benchmark's tracer patches the package's functions by name, and its
operations call the library directly, so a rename or removal in the package
must fail here rather than in a benchmark pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycleshuffles

SRC = Path(cycleshuffles.__file__).resolve().parent.parent
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_against_the_package():
    script = (
        f"import sys; sys.path.insert(0, {str(BENCHMARKS)!r}); import tracer; "
        "tracer.install(tracer.Tracer()); print('installed')"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "installed\n"


@pytest.mark.parametrize("kind", ["setup", "minimal_polynomial", "char_poly"])
def test_benchmark_operations_run_against_the_package(kind, tmp_path):
    output = tmp_path / "coeffs.json"
    spec = {"kind": kind, "weights": ["1/3", "1/2", "1"], "output": str(output)}
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / "op.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if kind != "setup":
        coeffs = json.loads(output.read_text())["coeffs"]
        assert isinstance(coeffs, list) and coeffs
