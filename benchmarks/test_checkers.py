"""Tests of the benchmark's own checkers and tracer.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'

Each checker must accept the package's output as it is today and reject a
corrupted copy of it.  Outputs are made at small n so that the tests run in
seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checkers  # noqa: E402
import oracle  # noqa: E402
from cycleshuffles import basis, cli, shuffles, spectrum  # noqa: E402

N = 8
WEIGHTS = tuple(Fraction(w) for w in ("3/2", "-1", "2/7", "5", "-4/3", "1", "-2/9", "7/4"))


def cli_output(*argv: str) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(list(argv))
    return buf.getvalue(), rc


def edit_csv(text: str, row: int, col: int, change) -> str:
    """The CSV text with one cell replaced by change(cell)."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = change(rows[row][col])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def edit_line(text: str, index: int, sep: str, col: int, change) -> str:
    """The text with one cell of one line replaced, keeping its width."""
    lines = text.split("\n")
    cells = lines[index].split(sep) if sep else lines[index].split(None, 4)
    new = change(cells[col].strip())
    cells[col] = new.rjust(len(cells[col])) if sep else new
    lines[index] = sep.join(cells) if sep else " ".join(cells)
    return "\n".join(lines)


class SpectrumCheckerTest(unittest.TestCase):
    sample = range(0, oracle.fibonacci(N + 1), 3)

    def outputs(self, fmt):
        weights = ",".join(str(w) for w in WEIGHTS)
        yield oracle.r2b_weights(N), cli_output("spectrum", "--n", str(N), "--r2b", "--format", fmt)[0]
        yield WEIGHTS, cli_output("spectrum", "--n", str(N), f"--weights={weights}", "--format", fmt)[0]

    def test_accepts_todays_output(self):
        for fmt in ("json", "text", "csv"):
            for weights, text in self.outputs(fmt):
                checkers.check_spectrum(text, fmt, N, weights, self.sample)

    def test_rejects_a_multiplicity_off_by_one(self):
        def plus_one(cell):
            return str(int(cell) + 1)

        for fmt in ("json", "text", "csv"):
            for weights, text in self.outputs(fmt):
                if fmt == "json":
                    data = json.loads(text)
                    data["rows"][4]["multiplicity"] = plus_one(data["rows"][4]["multiplicity"])
                    bad = json.dumps(data)
                elif fmt == "csv":
                    bad = edit_csv(text, 5, 4, plus_one)
                else:
                    bad = edit_line(text, 6, None, 3, plus_one)
                self.assertNotEqual(bad, text)
                with self.subTest(fmt=fmt), self.assertRaisesRegex(checkers.Incorrect, "multiplicities sum"):
                    checkers.check_spectrum(bad, fmt, N, weights, self.sample)

    def test_rejects_a_wrong_m_vector(self):
        text = cli_output("spectrum", "--n", str(N), "--r2b", "--format", "json")[0]
        data = json.loads(text)
        data["rows"][3]["m"][0] += 1
        with self.assertRaises(checkers.Incorrect):
            checkers.check_spectrum(json.dumps(data), "json", N, oracle.r2b_weights(N), range(10))


class FiltrationCheckerTest(unittest.TestCase):
    def test_accepts_todays_output_and_rejects_a_wrong_dimension(self):
        for fmt in ("json", "text", "csv"):
            text = cli_output("filtration", "--n", str(N), "--format", fmt)[0]
            checkers.check_filtration(text, fmt, N, range(0, 50, 7))
            if fmt == "json":
                data = json.loads(text)
                data["rows"][2]["dim"] += 1
                bad = json.dumps(data)
            elif fmt == "csv":
                bad = edit_csv(text, 3, 3, lambda cell: str(int(cell) + 1))
            else:
                bad = edit_line(text, 3, " | ", 3, lambda cell: str(int(cell) + 1))
            self.assertNotEqual(bad, text)
            with self.subTest(fmt=fmt), self.assertRaisesRegex(checkers.Incorrect, "does not rise"):
                checkers.check_filtration(bad, fmt, N, range(5))


class CertifyCheckerTest(unittest.TestCase):
    n = 4
    uniform = [Fraction(1, 4)] * 4

    def matrix(self, basis_name):
        osc = ",".join(str(p) for p in self.uniform)
        argv = ["matrix", "--n", str(self.n), "--osc", osc, "--basis", basis_name, "--order", "qindex"]
        return cli_output(*argv)[0]

    def test_verify(self):
        text, rc = cli_output("verify", "--n", str(self.n), "--suite", "all")
        checkers.check_verify(text, rc, self.n)
        with self.assertRaises(checkers.Incorrect):
            checkers.check_verify(text.replace("PASS", "FAIL", 1), 1, self.n)
        with self.assertRaises(checkers.Incorrect):
            checkers.check_verify(text.split("\n", 1)[1], rc, self.n)

    def test_a_matrix_rejects_an_entry_below_the_diagonal(self):
        r2b = oracle.osc_weights(self.uniform)
        text = self.matrix("a")
        labels = checkers.check_a_matrix(text, self.n, r2b)
        self.assertEqual(len(labels), 24)
        bad = edit_csv(text, 7, 1, lambda cell: "1/2")  # row 6, column 0
        with self.assertRaisesRegex(checkers.Incorrect, "below the diagonal"):
            checkers.check_a_matrix(bad, self.n, r2b)

    def test_transition_matrix(self):
        labels = checkers.check_a_matrix(self.matrix("a"), self.n, oracle.osc_weights(self.uniform))
        text = self.matrix("std")
        lex = checkers.parse_matrix_csv(text)[0]
        checkers.check_transition_matrix(text, self.n, lex)
        row = next(csv.reader(io.StringIO(text.split("\n")[1])))
        first = next(k for k, v in enumerate(row) if k and v != "0")
        bad = edit_csv(text, 1, first, lambda cell: str(Fraction(cell) + Fraction(1, 100)))
        with self.assertRaisesRegex(checkers.Incorrect, "sums to"):
            checkers.check_transition_matrix(bad, self.n, lex)
        # the std export ignores --order today, so its rows are not in Q-index order
        with self.assertRaises(checkers.OpFailed):
            checkers.check_transition_matrix(text, self.n, labels)

    def test_polynomials(self):
        r2b = oracle.osc_weights(self.uniform)
        x = shuffles.combine(r2b)
        minpoly = json.dumps({"coeffs": spectrum.minimal_polynomial(x).to_json()})
        checkers.check_minimal_polynomial(minpoly, self.n, r2b)
        _, matrix = basis.rmul_matrix(x, "a", "qindex")
        charpoly = json.dumps({"coeffs": spectrum.char_poly_oracle(matrix).to_json()})
        checkers.check_char_poly(charpoly, self.n, r2b)
        pairs = ((minpoly, checkers.check_minimal_polynomial), (charpoly, checkers.check_char_poly))
        for text, check in pairs:
            data = json.loads(text)
            data["coeffs"][0] = str(Fraction(data["coeffs"][0]) + 1)
            with self.assertRaises(checkers.Incorrect):
                check(json.dumps(data), self.n, r2b)


class SimulationCheckerTest(unittest.TestCase):
    def run_sim(self, *argv):
        return cli_output("simulate", "--format", "json", *argv)[0]

    def test_accepts_todays_output(self):
        skewed = [Fraction(2 * (6 - i), 30) for i in range(1, 6)]
        uniform = self.run_sim("--n", "5", "--trials", "3000", "--seed", "7")
        checkers.check_simulation(uniform, 5, [Fraction(1, 5)] * 5, 3000, True)
        dist = ",".join(str(p) for p in skewed)
        top_heavy = self.run_sim("--n", "5", "--trials", "3000", "--seed", "8", "--dist", dist)
        checkers.check_simulation(top_heavy, 5, skewed, 3000, True)
        fast = self.run_sim("--n", "60", "--trials", "3000", "--seed", "9", "--fast")
        checkers.check_simulation(fast, 60, [Fraction(1, 60)] * 60, 3000, False)

    def test_rejects_a_mean_moved_by_ten_standard_errors(self):
        data = json.loads(self.run_sim("--n", "5", "--trials", "3000", "--seed", "7"))
        moved = dict(data, mean=data["mean"] + 10 * data["stderr"])
        with self.assertRaises(checkers.Incorrect):
            checkers.check_simulation(json.dumps(moved), 5, [Fraction(1, 5)] * 5, 3000, True)
        # the histogram shifted as a whole, reported mean kept consistent with it
        shift = int(10 * data["stderr"]) + 1
        shifted = dict(
            data,
            mean=data["mean"] + shift,
            exact=None,
            histogram=[[tau + shift, c] for tau, c in data["histogram"]],
        )
        with self.assertRaisesRegex(checkers.Incorrect, "standard errors"):
            checkers.check_simulation(json.dumps(shifted), 5, [Fraction(1, 5)] * 5, 3000, True)

    def test_rejects_a_histogram_that_does_not_sum_to_the_trials(self):
        data = json.loads(self.run_sim("--n", "5", "--trials", "3000", "--seed", "7"))
        data["histogram"][0][1] += 1
        with self.assertRaises(checkers.Incorrect):
            checkers.check_simulation(json.dumps(data), 5, [Fraction(1, 5)] * 5, 3000, True)


class OracleTest(unittest.TestCase):
    def test_catalog_and_multiplicities(self):
        for n in range(2, 10):
            subsets = oracle.lacunar_subsets(n)
            self.assertEqual(len(subsets), oracle.fibonacci(n + 1))
            self.assertEqual(sum(oracle.multiplicity(s, n) for s in subsets), math.factorial(n))

    def test_uniform_expected_tau_matches_the_closed_form(self):
        for n in range(2, 12):
            h = [sum(Fraction(1, k) for k in range(1, m + 1)) for m in range(n + 1)]
            closed = sum(Fraction(n) / (i * (h[n] - h[i - 1])) for i in range(2, n + 1))
            self.assertEqual(oracle.expected_tau([Fraction(1, n)] * n), closed)


class TracerTest(unittest.TestCase):
    def test_duality_suite_counts_every_bilinear_form(self):
        n = 3
        with tempfile.TemporaryDirectory() as tmp:
            spec = {
                "kind": "cli",
                "argv": ["verify", "--n", str(n), "--suite", "duality", "--output", os.path.join(tmp, "out")],
                "trace": os.path.join(tmp, "trace.json"),
            }
            subprocess.run([sys.executable, os.path.join(HERE, "op.py"), json.dumps(spec)], check=True)
            with open(spec["trace"]) as handle:
                trace = json.load(handle)
        # the Gram check and check_dual_triangularity each scan all (n!)^2 pairs
        self.assertEqual(trace["calls"]["algebra.bilinear_form"][0], (n + 1) * 36)
        # expand_in_b is reached through the checks module's own import of it
        self.assertEqual(trace["calls"]["basis.expand_in_b"][0], n * 6)
        names = {span[0]: span for span in trace["spans"]}
        run_index = trace["spans"].index(names["cli.run"])
        self.assertEqual(names["checks.duality"][3], run_index)


if __name__ == "__main__":
    unittest.main()
