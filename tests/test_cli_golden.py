"""Byte-identity of the command line against recorded digests.

Every case runs the CLI in process and compares the sha256 of its stdout,
the sha256 of its stderr and its exit code with ``cli_golden.json``.  A
change that alters any CLI byte on purpose must regenerate the file and
say which cases moved:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cycleshuffles.cli import run
from cycleshuffles.inputs import MAX_N_ENV_VAR

GOLDEN = Path(__file__).with_name("cli_golden.json")

SIGNED_WEIGHTS = (
    "-3", "1/2", "0", "7/3", "-1", "5", "-2/9", "4",
    "3/4", "-5", "2", "-1/3", "6", "0", "-7/2", "1",
)


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for n in (*range(1, 9), 12, 16):
        weights = ("--weights=" + ",".join(SIGNED_WEIGHTS[:n]),)
        for flags in (("--r2b",), ("--t2r",), ("--unweighted",), weights):
            for fmt in ("text", "json", "csv"):
                cases.append(("spectrum", "--n", str(n), *flags, "--format", fmt))
    for n in (*range(1, 13), 16, 20):
        for fmt in ("text", "json", "csv"):
            cases.append(("filtration", "--n", str(n), "--format", fmt))
    for n in range(1, 6):
        for suite in ("annihilator", "boolean-partition", "duality", "identities", "triangularity", "all"):
            for fmt in ("text", "json"):
                cases.append(("verify", "--n", str(n), "--suite", suite, "--format", fmt))
    for n in range(2, 5):
        for flags in (("--t", "1"), ("--osc", ",".join([f"1/{n}"] * n))):
            for basis in ("std", "a", "b"):
                for order in ("lex", "qindex", "qindex-desc"):
                    cases.append(("matrix", "--n", str(n), *flags, "--basis", basis, "--order", order))
    for n in range(1, 5):
        for flags in (("--t", "1"), ("--osc", ",".join([f"1/{n}"] * n))):
            for basis in ("std", "a", "b"):
                for order in ("lex", "qindex", "qindex-desc"):
                    cases.append(
                        ("matrix", "--n", str(n), *flags, "--basis", basis, "--order", order, "--format", "json")
                    )
    uniform5 = ",".join(["1/5"] * 5)
    for basis in ("a", "b"):
        for fmt in ("csv", "json"):
            cases.append(
                ("matrix", "--n", "5", "--osc", uniform5, "--basis", basis, "--order", "qindex", "--format", fmt)
            )
    cases.append(("matrix", "--n", "5", "--t", "2", "--basis", "b", "--order", "qindex-desc"))
    for suite in ("triangularity", "duality"):
        cases.append(("verify", "--n", "6", "--suite", suite, "--format", "json"))
    for n in range(1, 6):
        point_mass = ",".join(["1"] + ["0"] * (n - 1))
        for flags in ((), ("--fast",), ("--dist", point_mass)):
            for fmt in ("text", "json"):
                cases.append(
                    ("simulate", "--n", str(n), "--trials", "400", "--seed", "11", *flags, "--format", fmt)
                )
    cases.append(("simulate", "--n", "30", "--trials", "2000", "--seed", "11", "--fast", "--format", "json"))
    # the nulls of the simulate JSON: exact above n = 200, stderr at one trial
    cases.append(("simulate", "--n", "201", "--trials", "50", "--seed", "11", "--fast", "--format", "json"))
    cases.append(("simulate", "--n", "5", "--trials", "1", "--seed", "11", "--format", "json"))
    cases += [
        ("spectrum", "--n", "4", "--weights", "1,1"),
        ("spectrum", "--n", "4", "--weights", "1,1,1,1,1,1"),
        ("spectrum", "--n", "3", "--weights", "1,x,3"),
        ("spectrum", "--n", "0", "--r2b"),
        ("matrix", "--n", "9", "--t", "1"),
        ("matrix", "--n", "5", "--t", "1", "--basis", "a", "--max-n", "4"),
        ("matrix", "--n", "3", "--t", "4"),
        ("matrix", "--n", "3", "--osc", "1/2,1/2"),
        ("verify", "--n", "9", "--suite", "triangularity"),
        ("verify", "--n", "5", "--suite", "all", "--max-n", "4"),
        ("verify", "--n", "5", "--suite", "boolean-partition", "--max-n", "4"),
        ("verify", "--n", "9", "--suite", "boolean-partition"),
        ("simulate", "--n", "3", "--trials", "10", "--seed", "1", "--dist", "0,1/2,1/2"),
        ("simulate", "--n", "3", "--trials", "10", "--seed", "1", "--dist", "1/2,1/2"),
        ("simulate", "--n", "3", "--trials", "0", "--seed", "1"),
        ("filtration", "--n", "3", "--max-n", "5"),
    ]
    return cases


def _digest(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_grid_is_the_recorded_grid(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=_key)
def test_cli_bytes_match_the_recorded_digests(argv, golden, monkeypatch):
    monkeypatch.delenv(MAX_N_ENV_VAR, raising=False)
    assert _digest(argv) == golden[_key(argv)]


if __name__ == "__main__":
    os.environ.pop(MAX_N_ENV_VAR, None)
    digests = {_key(argv): _digest(argv) for argv in _cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
