"""Each subcommand loads only the modules it runs.  A fresh interpreter
imports the package root, then cycleshuffles.cli alone and builds its
parser, then runs the subcommands one after another; after each step the
cycleshuffles modules in sys.modules and whether dataclasses and numpy are
loaded are recorded.  The parser needs cli alone (and no fractions or json),
only the simulator needs numpy (and dataclasses with it), spectrum and
filtration need no group algebra, and matrix and verify load exactly the
modules the README names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycleshuffles

SRC = Path(cycleshuffles.__file__).resolve().parent.parent

ROOT, CLI = "import cycleshuffles", "import cycleshuffles.cli"
PARSER = {"cli"}
RENDER = PARSER | {"commands", "inputs", "lacunar"}

SPECTRUM_STEPS = [
    ["spectrum", "--n", "5", kind, "--format", fmt]
    for kind in ("--r2b", "--t2r", "--unweighted", "--weights=1,-2,1/3,0,5")
    for fmt in ("text", "csv", "json")
] + [["filtration", "--n", "5", "--format", fmt] for fmt in ("text", "csv", "json")]

MATRIX_STEPS = [
    ["matrix", "--n", "4", "--osc", "1/4,1/4,1/4,1/4", "--basis", "a", "--order", "qindex"],
    ["matrix", "--n", "4", "--t", "2", "--format", "json"],
]
VERIFY_STEPS = [
    ["verify", "--n", "4", "--suite", "all"],
    ["verify", "--n", "4", "--suite", "all", "--format", "json"],
]
SIMULATE = ["simulate", "--n", "3", "--trials", "10", "--seed", "1"]

STEPS = [ROOT, CLI, *SPECTRUM_STEPS, *MATRIX_STEPS, *VERIFY_STEPS, "minimal_polynomial", SIMULATE]

MODULES = {path.stem for path in (SRC / "cycleshuffles").glob("*.py")} - {"__init__"}
# the steps of each subcommand, run after importing the CLI, and the modules each step leaves loaded
LOADS = {
    "spectrum-filtration": (SPECTRUM_STEPS, RENDER),
    "matrix": (MATRIX_STEPS, RENDER | {"algebra", "basis", "perms", "shuffles"}),
    "verify": (VERIFY_STEPS, MODULES - {"simulate"}),
}

SCRIPT = """
import contextlib, json, sys
from fractions import Fraction

def loaded():
    return sorted(key.split(".", 1)[1] for key in sys.modules if key.startswith("cycleshuffles."))

def watched():
    return [name for name in ("dataclasses", "numpy") if name in sys.modules]

steps, output = json.loads(sys.argv[1]), sys.argv[2]
report = []
for step in steps:
    code = 0
    if step == "import cycleshuffles":
        import cycleshuffles
    elif step == "import cycleshuffles.cli":
        import cycleshuffles.cli

        cycleshuffles.cli.build_parser()
    elif step == "minimal_polynomial":
        from cycleshuffles import shuffles, spectrum

        weights = [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        spectrum.minimal_polynomial(shuffles.combine(weights), max_n=3)
    else:
        with open(output, "w") as handle, contextlib.redirect_stdout(handle):
            code = cycleshuffles.cli.run(step)
        step = " ".join(step)
    report.append([step, code, loaded(), watched()])
print(json.dumps(report))
"""


# the modules a fresh interpreter holds once it has built the parser, one to a line
PARSER_SCRIPT = """
import sys
import cycleshuffles.cli

cycleshuffles.cli.build_parser()
print("\\n".join(sys.modules))
"""


def fresh(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_steps(steps, tmp_path) -> list[tuple[str, int, set[str], set[str]]]:
    stdout = fresh(SCRIPT, json.dumps(steps), str(tmp_path / "out.txt"))
    report = [(step, code, set(modules), set(names)) for step, code, modules, names in json.loads(stdout)]
    assert [code for _, code, _, _ in report] == [0] * len(steps)
    return report


@pytest.fixture(scope="module")
def every_step(tmp_path_factory):
    return run_steps(STEPS, tmp_path_factory.mktemp("every"))


def test_numpy_is_loaded_by_simulate_only(every_step):
    loaded = {step: "numpy" in names for step, _, _, names in every_step}
    assert loaded == {step: step.startswith("simulate") for step in loaded}


def test_no_dataclasses_before_numpy(every_step):
    # the root, the parser, spectrum, filtration, matrix, verify and
    # minimal_polynomial; numpy brings dataclasses in with it
    *before, (step, _, _, names) = every_step
    assert step.startswith("simulate") and "dataclasses" in names
    assert [s for s, _, _, names in before if "dataclasses" in names] == []


@pytest.fixture(scope="module")
def light_then_simulate(tmp_path_factory):
    return run_steps([ROOT, CLI, *SPECTRUM_STEPS, SIMULATE], tmp_path_factory.mktemp("light"))


def test_the_package_root_loads_no_submodule(light_then_simulate):
    step, _, modules, names = light_then_simulate[0]
    assert step == ROOT
    assert modules == set()
    assert "numpy" not in names


def test_the_parser_loads_cli_alone():
    names = set(fresh(PARSER_SCRIPT).split())
    assert {name for name in names if name.startswith("cycleshuffles.")} == {f"cycleshuffles.{m}" for m in PARSER}
    assert not names & {"dataclasses", "fractions", "json"}


@pytest.mark.parametrize("command", LOADS)
def test_each_subcommand_loads_exactly_its_modules(command, tmp_path):
    steps, modules = LOADS[command]
    report = run_steps([CLI, *steps], tmp_path)
    assert [step for step, _, _, _ in report] == [CLI] + [" ".join(step) for step in steps]
    assert [loaded for _, _, loaded, _ in report] == [PARSER] + [modules] * len(steps)


def test_simulate_adds_only_simulate(light_then_simulate):
    (_, _, before, _), (_, _, after, names) = light_then_simulate[-2:]
    assert after - before == {"simulate"}
    assert before <= after
    assert "numpy" in names


def test_simulate_alone_loads_no_lacunar(tmp_path):
    _, (_, _, modules, _) = run_steps([CLI, SIMULATE], tmp_path)
    assert modules == PARSER | {"commands", "inputs", "simulate"}


@pytest.mark.parametrize("name", sorted(cycleshuffles._EXPORTS))
def test_every_public_name_resolves_from_the_root(name):
    namespace: dict = {}
    exec(f"from cycleshuffles import {name}", namespace)
    defining = importlib.import_module(f"cycleshuffles.{cycleshuffles._EXPORTS[name]}")
    assert namespace[name] is getattr(defining, name)


def test_the_root_lists_its_names_and_refuses_others():
    listed = dir(cycleshuffles)
    assert set(cycleshuffles._EXPORTS) <= set(listed)
    assert cycleshuffles._SUBMODULES <= set(listed)
    for module in cycleshuffles._SUBMODULES:
        assert getattr(cycleshuffles, module) is importlib.import_module(f"cycleshuffles.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        cycleshuffles.no_such_name
    with pytest.raises(ImportError):
        exec("from cycleshuffles import no_such_name", {})
