"""Checks of the outputs the benchmark's operations produce.

Each checker takes an output as text and raises ``Incorrect`` when a value
contradicts the reference computations in ``oracle`` or a property the
method must have.  ``OpFailed`` marks an output that does not have the form
the operation asked for, so the operation counts as failed rather than as
wrong.  No checker compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Sequence

import oracle


class Incorrect(Exception):
    """An output value is wrong."""


class OpFailed(Exception):
    """The operation did not deliver what it was asked for."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Incorrect(message)


def _parse_set(text: str) -> frozenset[int]:
    inner = text.strip()[1:-1]
    return frozenset(int(v) for v in inner.split(",")) if inner else frozenset()


# ---------------------------------------------------------------- spectra


def parse_spectrum(text: str, fmt: str) -> tuple[list[tuple], list[tuple] | None]:
    """Rows (set, m-vector, eigenvalue, multiplicity) and, for the formats
    that carry it, the aggregate (eigenvalue, multiplicity) list."""
    if fmt == "json":
        data = json.loads(text)
        rows = [
            (frozenset(r["set"]), tuple(r["m"]), Fraction(r["eigenvalue"]), int(r["multiplicity"]))
            for r in data["rows"]
        ]
        agg = [(Fraction(a["eigenvalue"]), int(a["multiplicity"])) for a in data["aggregate"]]
        return rows, agg
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        _require(header == ["i", "set", "m", "eigenvalue", "multiplicity"], f"csv header {header}")
        rows = [
            (_parse_set(s), tuple(int(v) for v in m.split()), Fraction(g), int(mult))
            for _, s, m, g, mult in reader
        ]
        return rows, None
    if fmt == "text":
        lines = text.splitlines()
        split = lines.index("aggregate:")
        rows = []
        for line in lines[2:split]:
            _, s, g, mult, m = line.split(None, 4)
            m_vec = tuple(int(v) for v in m.strip("()").split(","))
            rows.append((_parse_set(s), m_vec, Fraction(g), int(mult)))
        agg = []
        for line in lines[split + 1 :]:
            left, mult = line.split(": multiplicity ")
            agg.append((Fraction(left.split("eigenvalue ")[1]), int(mult)))
        return rows, agg
    raise ValueError(f"unknown format {fmt}")


def check_catalog_sets(sets: Sequence[frozenset[int]], n: int) -> None:
    """The row sets are exactly the lacunar subsets of [n-1]."""
    _require(len(sets) == oracle.fibonacci(n + 1), f"{len(sets)} rows, expected fibonacci({n + 1})")
    _require(set(sets) == set(oracle.lacunar_subsets(n)), "row sets are not the lacunar subsets")


def check_spectrum(text: str, fmt: str, n: int, weights: Sequence[Fraction], sample: Sequence[int]) -> None:
    rows, agg = parse_spectrum(text, fmt)
    check_catalog_sets([r[0] for r in rows], n)
    total = sum(r[3] for r in rows)
    _require(total == math.factorial(n), f"multiplicities sum to {total}, expected {n}!")
    tr1, tr2 = oracle.trace_targets(weights, n)
    got1 = sum((g * mult for _, _, g, mult in rows), Fraction(0))
    got2 = sum((g * g * mult for _, _, g, mult in rows), Fraction(0))
    _require(got1 == tr1, f"sum g*mult = {got1}, expected {tr1}")
    _require(got2 == tr2, f"sum g^2*mult = {got2}, expected {tr2}")
    for k in sample:
        members, m, g, _ = rows[k % len(rows)]
        _require(m == oracle.m_vector(members, n), f"m-vector of {sorted(members)} is {m}")
        _require(g == oracle.eigenvalue(weights, members, n), f"eigenvalue of {sorted(members)} is {g}")
    if agg is not None:
        totals: dict[Fraction, int] = {}
        for _, _, g, mult in rows:
            totals[g] = totals.get(g, 0) + mult
        _require(dict(agg) == totals and len(agg) == len(totals), "aggregate disagrees with the rows")


def parse_filtration(text: str, fmt: str) -> list[tuple[frozenset[int], int, int]]:
    """Rows (set, dim F_i, delta_i)."""
    if fmt == "json":
        return [(frozenset(r["set"]), int(r["dim"]), int(r["delta"])) for r in json.loads(text)["rows"]]
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        next(reader)
        return [(_parse_set(s), int(dim), int(d)) for _, s, _, dim, d in reader]
    if fmt == "text":
        out = []
        for line in text.splitlines()[1:]:
            _, s, _, dim, d = (cell.strip() for cell in line.split(" | "))
            out.append((_parse_set(s), int(dim), int(d)))
        return out
    raise ValueError(f"unknown format {fmt}")


def check_filtration(text: str, fmt: str, n: int, sample: Sequence[int]) -> None:
    rows = parse_filtration(text, fmt)
    check_catalog_sets([r[0] for r in rows], n)
    previous = 0
    for members, dim, d in rows:
        _require(d > 0 and dim == previous + d, f"dimension {dim} does not rise by delta {d}")
        previous = dim
    _require(previous == math.factorial(n), f"dimensions end at {previous}, expected {n}!")
    for k in sample:
        members, _, d = rows[k % len(rows)]
        _require(d == oracle.multiplicity(members, n), f"delta of {sorted(members)} is {d}")


# ---------------------------------------------------------------- certify

def check_verify(text: str, returncode: int, n: int) -> None:
    """Every check of --suite all passed: n triangularity checks, 3
    annihilators, n + 3 duality checks, 3 identity sweeps and the Boolean
    partition, i.e. 22 lines at n = 6."""
    lines = text.splitlines()
    expected = 2 * n + 10
    _require(returncode == 0, f"verify exited {returncode}")
    _require(len(lines) == expected, f"{len(lines)} result lines, expected {expected}")
    _require(all(line.startswith("PASS ") for line in lines), "a check did not pass")


def parse_matrix_csv(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    labels = next(reader)[1:]
    rows = []
    for k, row in enumerate(reader):
        _require(row[0] == labels[k], f"row {k} is labelled {row[0]}, column {labels[k]}")
        rows.append(row[1:])
    _require(len(rows) == len(labels) and all(len(r) == len(labels) for r in rows), "matrix is not square")
    return labels, rows


def _check_labels_are_sn(labels: Sequence[str], n: int) -> None:
    perms = {tuple(int(v) for v in label.split(",")) for label in labels}
    _require(len(perms) == len(labels) == math.factorial(n), "labels are not the permutations of S_n")
    _require(all(sorted(p) == list(range(1, n + 1)) for p in perms), "a label is not a permutation")


def check_a_matrix(text: str, n: int, weights: Sequence[Fraction]) -> list[str]:
    """Upper triangular in the exported order, with the spectrum on its
    diagonal; returns the row labels."""
    labels, rows = parse_matrix_csv(text)
    _check_labels_are_sn(labels, n)
    below = next(((i, j) for i, row in enumerate(rows) for j in range(i) if row[j] != "0"), None)
    _require(below is None, f"entry {below} below the diagonal is nonzero")
    diagonal = [Fraction(row[i]) for i, row in enumerate(rows)]
    tr1, tr2 = oracle.trace_targets(weights, n)
    _require(sum(diagonal, Fraction(0)) == tr1, "diagonal trace identity fails")
    _require(sum((g * g for g in diagonal), Fraction(0)) == tr2, "diagonal square-trace identity fails")
    counts: dict[Fraction, int] = {}
    for g in diagonal:
        counts[g] = counts.get(g, 0) + 1
    _require(counts == oracle.spectrum_multiset(weights, n), "diagonal multiset is not the spectrum")
    return labels


def check_transition_matrix(text: str, n: int, expected_labels: Sequence[str]) -> None:
    """Rows nonnegative and stochastic; raises OpFailed when the rows are
    not in the order that was asked for."""
    labels, rows = parse_matrix_csv(text)
    _check_labels_are_sn(labels, n)
    for k, row in enumerate(rows):
        entries = [Fraction(v) for v in row if v != "0"]
        _require(all(v >= 0 for v in entries), f"row {labels[k]} has a negative entry")
        _require(sum(entries, Fraction(0)) == 1, f"row {labels[k]} sums to {sum(entries, Fraction(0))}")
    if list(labels) != list(expected_labels):
        first = next(k for k, (a, b) in enumerate(zip(labels, expected_labels)) if a != b)
        raise OpFailed(f"row order differs from the Q-index order at row {first}: {labels[first]}")


def _coeffs(text: str) -> list[Fraction]:
    return [Fraction(c) for c in json.loads(text)["coeffs"]]


def check_minimal_polynomial(text: str, n: int, weights: Sequence[Fraction]) -> None:
    coeffs = _coeffs(text)
    _require(bool(coeffs) and coeffs[-1] == 1, "minimal polynomial is not monic")
    for g in oracle.spectrum_multiset(weights, n):
        _require(oracle.poly_eval(coeffs, g) == 0, f"minimal polynomial does not vanish at {g}")


def check_char_poly(text: str, n: int, weights: Sequence[Fraction]) -> None:
    expected = oracle.poly_from_roots(oracle.spectrum_multiset(weights, n))
    _require(_coeffs(text) == expected, "characteristic polynomial is not the product of (x - g)^mult")


# ---------------------------------------------------------------- sst


def check_simulation(text: str, n: int, dist: Sequence[Fraction], trials: int, exact: bool) -> None:
    """Histogram sane and its mean within 4 standard errors of E[tau]."""
    data = json.loads(text)
    hist = [(int(tau), int(count)) for tau, count in data["histogram"]]
    _require(data["n"] == n and data["trials"] == trials, "run parameters differ from the request")
    _require(sum(c for _, c in hist) == trials, "histogram does not sum to the number of trials")
    _require(min(tau for tau, _ in hist) >= n - 1, "a stationary time is below n - 1")
    total = sum(tau * c for tau, c in hist)
    total_sq = sum(tau * tau * c for tau, c in hist)
    mean = total / trials
    stderr = math.sqrt(float(total_sq - Fraction(total * total, trials)) / (trials - 1) / trials)
    _require(math.isclose(data["mean"], mean, rel_tol=1e-12), f"mean {data['mean']} vs {mean}")
    _require(math.isclose(data["stderr"], stderr, rel_tol=1e-9), f"stderr {data['stderr']} vs {stderr}")
    expected = oracle.expected_tau(dist, exact)
    if exact and data.get("exact") is not None:
        _require(Fraction(data["exact"]) == expected, f"reported exact E[tau] {data['exact']} vs {expected}")
    z = (data["mean"] - float(expected)) / data["stderr"]
    _require(abs(z) <= 4, f"mean {data['mean']} is {z:.2f} standard errors from E[tau] = {float(expected)}")
