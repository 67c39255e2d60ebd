"""The benchmark's tracer patches the package's functions by name, so a
rename or removal in the package must fail here rather than in a traced
benchmark pass."""

import os
import subprocess
import sys
from pathlib import Path

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
