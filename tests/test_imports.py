"""Only the simulator needs numpy.  Importing the package, running any other
subcommand, or calling the exact library paths must not load it, so a fresh
interpreter is checked after each step."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cycleshuffles

SRC = Path(cycleshuffles.__file__).resolve().parent.parent

STEPS = [
    ["spectrum", "--n", "5", "--r2b", "--format", "json"],
    ["filtration", "--n", "5"],
    ["filtration", "--n", "5", "--format", "json"],
    ["matrix", "--n", "4", "--osc", "1/4,1/4,1/4,1/4", "--basis", "a", "--order", "qindex"],
    ["matrix", "--n", "4", "--t", "2", "--format", "json"],
    ["verify", "--n", "4", "--suite", "all"],
    ["verify", "--n", "4", "--suite", "all", "--format", "json"],
    "minimal_polynomial",
    ["simulate", "--n", "3", "--trials", "10", "--seed", "1"],
]

SCRIPT = """
import contextlib, json, sys
from fractions import Fraction

import cycleshuffles
from cycleshuffles import cli, shuffles, spectrum

steps, output = json.loads(sys.argv[1]), sys.argv[2]
report = [["import cycleshuffles", 0, "numpy" in sys.modules]]
for step in steps:
    if step == "minimal_polynomial":
        weights = [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        spectrum.minimal_polynomial(shuffles.combine(weights), max_n=3)
        code = 0
    else:
        with open(output, "w") as handle, contextlib.redirect_stdout(handle):
            code = cli.run(step)
        step = " ".join(step)
    report.append([step, code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_numpy_is_loaded_by_simulate_only(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(STEPS), str(tmp_path / "out.txt")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [code for _, code, _ in report] == [0] * len(report)
    loaded = {step: numpy for step, _, numpy in report}
    assert loaded == {step: step.startswith("simulate") for step in loaded}
