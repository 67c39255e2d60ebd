import copy
import math
import operator
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from cycleshuffles import SUITE_NAMES, checks, lacunar
from cycleshuffles.basis import BasisFamily, QIndexTable, build_a_family, dual_basis, rmul_columns
from cycleshuffles.shuffles import build_t, build_t_prime


def test_the_suites_are_the_named_ones_in_their_order():
    assert tuple(checks.SUITES) == SUITE_NAMES


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_check_passes_on_the_dual_basis(n):
    assert checks.check_gram(dual_basis(build_a_family(n))).passed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_check_fails_when_one_coefficient_is_perturbed(n):
    b_family = dual_basis(build_a_family(n))
    last = len(b_family.perms) - 1
    for rq in (0, last // 2, last):
        q = b_family.perms[rq]
        for rw in (rq, 0, last):
            rows = list(b_family.rows)
            terms = dict(rows[rq])
            terms[rw] = terms.get(rw, 0) + 1
            rows[rq] = list(terms.items())
            perturbed = BasisFamily(n, rows, kind="b", expand=b_family.expand)
            result = checks.check_gram(perturbed)
            assert not result.passed
            assert f"b_{q}" in result.detail


def direct_b_lines(b_family, table, columns=None):
    """The R(t'_ell) lines read from the b-columns of R(t'_ell) themselves,
    the oracle for the lines check_duality reads from the a-columns: each
    sweep stops at the first b-column q in lex order whose diagonal is not
    m, or which holds a nonzero entry at a rank p with Qind p <= Qind q, and
    names its least such p.  columns(ell) gives the integer columns, by
    default drawn from b_family; the diagonals come from checks.m_vector, so
    a mutation of it reaches this sweep too."""
    n = b_family.n
    perms = b_family.perms
    qind = [table[w] for w in perms]
    diagonals = [checks.m_vector(members, n) for members in table.catalog.members]
    columns = columns or (lambda ell: rmul_columns(build_t_prime(n, ell), b_family))
    results = []
    for ell in range(1, n + 1):
        bad = ""
        for q, (den, column) in enumerate(columns(ell)):
            qq = qind[q]
            diag = column.pop(q, 0)
            if diag != den * diagonals[qq - 1][ell - 1]:
                bad = f"diagonal of column {perms[q]} is {Fraction(diag, den)}"
                break
            offenders = [p for p, c in column.items() if c and qind[p] <= qq]
            if offenders:
                p = min(offenders)
                bad = f"column {perms[q]} reaches {perms[p]} with Qind {qind[p]} <= {qq}"
                break
        results.append(checks.CheckResult("duality", checks.DUAL_TRIANGULAR.format(ell), not bad, bad))
    return results


def derived_lines(results):
    return [r for r in results if r.name.startswith("R(t'_")]


def entries(columns):
    """(d, {(row, column): numerator}) of the nonzero entries of a matrix
    drawn column by column over one common denominator d."""
    dens, matrix = set(), {}
    for col, (den, column) in enumerate(columns):
        dens.add(den)
        matrix.update(((row, col), c) for row, c in column.items() if c)
    [den] = dens
    return den, matrix


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_b_matrix_of_r_t_prime_is_the_transposed_a_matrix(n):
    """The identity the derived R(t'_ell) lines rest on, entry for entry."""
    family = build_a_family(n)
    b_family = dual_basis(family)
    for ell in range(1, n + 1):
        den, a_matrix = entries(rmul_columns(build_t(n, ell), family))
        transposed = {(col, row): c for (row, col), c in a_matrix.items()}
        assert entries(rmul_columns(build_t_prime(n, ell), b_family)) == (den, transposed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_derived_lines_match_the_direct_b_sweep(n):
    derived = derived_lines(checks.check_duality(n))
    assert len(derived) == n and all(r.passed for r in derived)
    assert derived == direct_b_lines(dual_basis(build_a_family(n)), QIndexTable(n))


def perturbed_dual_basis(family):
    """The dual basis with f(a_p, b_q) moved off the identity at p = q = 0."""
    b_family = dual_basis(family)
    rows = list(b_family.rows)
    terms = dict(rows[0])
    terms[0] = terms.get(0, 0) + 1
    rows[0] = list(terms.items())
    return BasisFamily(family.n, rows, kind="b", expand=b_family.expand)


PREMISES = {
    "antipode": ("build_t_prime", build_t, "antipode(t_ell) = t'_ell"),
    "antipode-at-2": (
        "build_t_prime",
        lambda n, ell: build_t_prime(n, ell) * Fraction(1, 7 if ell == 2 else 1),
        "antipode(t_ell) = t'_ell",
    ),
    "gram": ("dual_basis", perturbed_dual_basis, "Gram(a, b) = identity"),
}


@pytest.mark.parametrize("suite", ["duality", "all"])
@pytest.mark.parametrize("premise", PREMISES)
def test_no_derived_line_passes_on_a_failed_premise(suite, premise, monkeypatch):
    attr, wrong, name = PREMISES[premise]
    monkeypatch.setattr(checks, attr, wrong)
    n = 4
    results = checks.run_suite(suite, n)
    assert [r.passed for r in results if r.name == name] == [False]
    assert [r.line() for r in derived_lines(results)] == [
        f"FAIL duality: R(t'_{ell}) upper-triangular in reverse Q-order (not derived: {name} failed)"
        for ell in range(1, n + 1)
    ]


def test_every_suite_draws_each_a_column_once_and_no_b_column(monkeypatch):
    n = 4
    calls = Counter()
    draws, columns = [], Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_columns(x, family):
        draws.append((x, family.kind))
        for column in real_columns(x, family):
            columns[family.kind] += 1
            yield column

    real_columns = checks.rmul_columns
    for name in ("build_a_family", "dual_basis", "QIndexTable"):
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    monkeypatch.setattr(checks, "rmul_columns", counted_columns)
    results = checks.run_suite("all", n)
    assert all(r.passed for r in results)
    assert calls == {"build_a_family": 1, "dual_basis": 1, "QIndexTable": 1}
    assert draws == [(build_t(n, ell), "a") for ell in range(1, n + 1)]
    assert columns == {"a": n * math.factorial(n)}


TRIANGULARITY_CHECKS = [
    ("triangularity", checks.check_triangularity),
    ("duality", lambda n: [r for r in checks.check_duality(n) if "upper-triangular" in r.name]),
]


def off_by_one_diagonals(monkeypatch):
    real = checks.m_vector
    monkeypatch.setattr(checks, "m_vector", lambda subset, n: tuple(m + 1 for m in real(subset, n)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("suite, run", TRIANGULARITY_CHECKS)
def test_triangularity_fails_on_a_diagonal_off_by_one(n, suite, run, monkeypatch):
    off_by_one_diagonals(monkeypatch)
    results = run(n)
    assert len(results) == n
    for result in results:
        assert result.suite == suite
        assert not result.passed
        # the sweep stops at the first column, the identity
        assert result.detail.startswith(f"diagonal of column {tuple(range(1, n + 1))} is ")


# two permutations of S_3 with different Q-indices per suite; a column earlier
# in lex order sees the swap before the diagonal of either swapped column is read
SWAPS = {"triangularity": ((2, 3, 1), (3, 1, 2)), "duality": ((2, 1, 3), (2, 3, 1))}


def swap_q_indices(monkeypatch, u, v):
    real = checks.QIndexTable

    def swapped(n, max_n=None):
        table = real(n, max_n)
        assert table[u] != table[v]
        table.index[u], table.index[v] = table[v], table[u]
        return table

    monkeypatch.setattr(checks, "QIndexTable", swapped)


@pytest.mark.parametrize("suite, run", TRIANGULARITY_CHECKS)
def test_triangularity_fails_when_two_q_indices_are_swapped(suite, run, monkeypatch):
    swap_q_indices(monkeypatch, *SWAPS[suite])
    sign = ">=" if suite == "triangularity" else "<="
    failed = [r for r in run(3) if not r.passed]
    assert failed
    for result in failed:
        assert result.suite == suite
        assert re.fullmatch(rf"column \(.*\) reaches \(.*\) with Qind \d+ {sign} \d+", result.detail)


@pytest.mark.parametrize(
    "mutate, n",
    [
        (off_by_one_diagonals, 3),
        (off_by_one_diagonals, 4),
        *((partial(swap_q_indices, u=u, v=v), 3) for u, v in SWAPS.values()),
    ],
    ids=["m_vector-3", "m_vector-4", *(f"swap-{suite}-3" for suite in SWAPS)],
)
def test_derived_lines_match_the_direct_b_sweep_under_each_mutation(mutate, n, monkeypatch):
    mutate(monkeypatch)
    derived = derived_lines(checks.check_duality(n))
    assert not all(r.passed for r in derived)
    assert derived == direct_b_lines(dual_basis(build_a_family(n)), checks.QIndexTable(n))


@pytest.mark.parametrize("fill, passed", [(0, True), (1, False)], ids=["zero", "one"])
@pytest.mark.parametrize("kind", ["a", "b"])
def test_the_sweeps_ignore_cancelled_zeros(kind, fill, passed):
    """Every column the expansion gives holds fill at rank v unless its entry
    there is nonzero.  v reaches the diagonal of column r, the first in lex
    order with a rank that can, and no earlier column: a cancelled zero
    there leaves every sweep passing, a 1 fails each at column r.  The
    a-columns feed both lines of checks._sweep_lines, and the transposed
    fill of the b-columns, column v at every rank where it is zero, gives
    the direct b-sweep the same R(t'_ell) lines; the b-columns filled at
    rank v feed the direct b-sweep alone."""
    n = 4
    a_family = build_a_family(n)
    real = a_family if kind == "a" else dual_basis(a_family)
    table = QIndexTable(n)
    qind = [table[w] for w in real.perms]
    reaches, sign = (operator.ge, ">=") if kind == "a" else (operator.le, "<=")
    r = next(r for r in range(len(qind)) if any(v != r and reaches(qind[v], qind[r]) for v in range(len(qind))))
    v = next(v for v in range(r + 1, len(qind)) if reaches(qind[v], qind[r]))

    def expand(product):
        column = real.expand(product)
        if not column.get(v):
            column[v] = fill
        return column

    mutated = BasisFamily(n, real.rows, real.kind, expand)
    if kind == "a":
        results, derived = checks._sweep_lines(mutated, table)
        b_family = dual_basis(a_family)

        def transposed(ell):
            for q, (den, column) in enumerate(rmul_columns(build_t_prime(n, ell), b_family)):
                if q == v:
                    column.update((p, fill) for p in range(len(qind)) if not column.get(p))
                yield den, column

        assert derived == direct_b_lines(b_family, table, transposed)
        assert [result.passed for result in derived] == [passed] * n
    else:
        results = direct_b_lines(mutated, table)
    assert [result.passed for result in results] == [passed] * n
    if not passed:
        detail = f"column {real.perms[r]} reaches {real.perms[v]} with Qind {qind[v]} {sign} {qind[r]}"
        assert [result.detail for result in results] == [detail] * n


def test_antipode_conjugation_checks_the_cap_it_is_given():
    with pytest.raises(ValueError, match="cap 6"):
        checks.check_antipode_conjugation(7, max_n=6)
    assert checks.check_antipode_conjugation(4, max_n=4).passed


@pytest.mark.parametrize(
    "primed",
    [
        build_t,  # x' = x, same denominators
        lambda n, ell: build_t_prime(n, ell) * Fraction(1, 7 if ell == 2 else 1),  # other denominators
    ],
)
def test_antipode_conjugation_fails_on_a_wrong_primed_shuffle(primed, monkeypatch):
    monkeypatch.setattr(checks, "build_t_prime", primed)
    result = checks.check_antipode_conjugation(4)
    assert (result.passed, result.detail) == (False, "columns differ at w=(1, 2, 3, 4)")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda masks: masks[:-1], "no lacunar interval located"),
        (lambda masks: masks + masks[-1:], "matched twice"),
    ],
)
def test_boolean_partition_fails_on_a_broken_catalog(monkeypatch, edit, message):
    broken = copy.copy(lacunar.enumerate_lacunar(4))
    broken.masks = edit(broken.masks)
    broken.non_shadow_masks = edit(broken.non_shadow_masks)
    monkeypatch.setattr(lacunar, "enumerate_lacunar", lambda n: broken)
    [result] = checks.check_boolean_partition(4)
    assert not result.passed
    assert message in result.detail
    assert result.name == "each of the 2^3 subsets matches exactly one lacunar interval"
