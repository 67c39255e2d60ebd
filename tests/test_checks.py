import copy
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from cycleshuffles import SUITE_NAMES, basis, checks, lacunar
from cycleshuffles.algebra import AlgebraElement, mirror_ranks, rank_factors, rank_product
from cycleshuffles.basis import BasisFamily, QIndexTable, build_a_family, dual_basis
from cycleshuffles.perms import transposition
from cycleshuffles.shuffles import build_t, build_t_prime

from columns import lex_columns


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


def direct_sweep_lines(family, table, columns=None):
    """The R(t_ell) and R(t'_ell) lines read from the a-columns of R(t_ell)
    themselves, the oracle for checks._sweep_lines, which builds those
    columns by the recursion t_ell = 1 + s_ell t_{ell+1}.  a-column p
    offends at rank v when Qind v >= Qind p, or at its diagonal when that
    is not d * m; the R(t_ell) line names the first offending a-column in
    lex order and the largest offending rank in its column; the
    R(t'_ell) line names the least offending b-column q of the transpose,
    by its diagonal if that offends and otherwise by its least offending p.
    columns(ell) gives the integer columns, by default drawn from family;
    the diagonals come from checks.m_vector, so a mutation of it reaches
    this sweep too."""
    n = family.n
    perms = family.perms
    qind = [table[w] for w in perms]
    diagonals = [checks.m_vector(members, n) for members in table.catalog.members]
    columns = columns or (lambda ell: lex_columns(build_t(n, ell), family))
    a_lines, b_lines = [], []
    for ell in range(1, n + 1):
        a_bad = b_bad = ""
        b_key = (len(perms),)  # (q, 0) for the diagonal of b-column q, (q, 1) for its other entries
        for p, (den, column) in enumerate(columns(ell)):
            qp = qind[p]
            diag = column.pop(p, 0)
            offenders = [v for v, c in column.items() if c and qind[v] >= qp]
            if diag != den * diagonals[qp - 1][ell - 1]:
                detail = f"diagonal of column {perms[p]} is {Fraction(diag, den)}"
                a_bad = a_bad or detail
                if (p, 0) < b_key:
                    b_key, b_bad = (p, 0), detail
            if offenders:
                v = max(offenders)
                a_bad = a_bad or f"column {perms[p]} reaches {perms[v]} with Qind {qind[v]} >= {qp}"
                q = min(offenders)
                if (q, 1) < b_key:
                    b_key, b_bad = (q, 1), f"column {perms[q]} reaches {perms[p]} with Qind {qp} <= {qind[q]}"
        a_lines.append(checks.CheckResult("triangularity", f"R(t_{ell}) upper-triangular in Q-order", not a_bad, a_bad))
        b_lines.append(checks.CheckResult("duality", checks.DUAL_TRIANGULAR.format(ell), not b_bad, b_bad))
    return a_lines, b_lines


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
    columns = columns or (lambda ell: lex_columns(build_t_prime(n, ell), b_family))
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
        den, a_matrix = entries(lex_columns(build_t(n, ell), family))
        transposed = {(col, row): c for (row, col), c in a_matrix.items()}
        assert entries(lex_columns(build_t_prime(n, ell), b_family)) == (den, transposed)


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


def test_every_suite_expands_only_the_ascent_columns_and_draws_no_column(monkeypatch):
    """run_suite("all") builds the a-family, the Q-index table and the dual
    basis once each, draws no column of any t_ell or t'_ell, and expands
    through the a-family one ascent column of R(s_ell) per mirror pair
    (w, ell) <-> (w0 w w0, n - ell), the first the sweep meets (ell from
    n - 1 down, lex order within ell), and one unit vector of dual_basis
    per mirror pair (v, w0 v w0); a pair that is its own mirror counts
    once."""
    n = 4
    calls, expanded, draws = Counter(), Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_expansions(*args):
        family = real_family(*args)
        real_expand = family.expand

        def expand(work):
            expanded[tuple(sorted(work.items()))] += 1
            return real_expand(work)

        family.expand = expand
        return family

    def counted_columns(x, family, order):
        draws.append(x)
        return real_columns(x, family, order)

    real_family, real_columns = checks.build_a_family, basis.rmul_columns
    for name in ("dual_basis", "QIndexTable"):
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    monkeypatch.setattr(checks, "build_a_family", counted("build_a_family", counted_expansions))
    monkeypatch.setattr(basis, "rmul_columns", counted_columns)
    assert not hasattr(checks, "rmul_columns")
    results = checks.run_suite("all", n)
    assert all(r.passed for r in results)
    assert calls == {"build_a_family": 1, "dual_basis": 1, "QIndexTable": 1}
    assert draws == []
    family = build_a_family(n)
    mirror = mirror_ranks(n)
    ascent, pairs = Counter(), set()
    for ell in range(n - 1, 0, -1):
        _, factors = rank_factors({transposition(n, ell): 1}, n)
        for p, (w, row) in enumerate(zip(family.perms, family.rows)):
            if w[ell - 1] < w[ell]:
                pairs.add(frozenset({(ell, p), (n - ell, mirror[p])}))
                if ell > n - ell or (ell == n - ell and p <= mirror[p]):  # the member the sweep meets first
                    ascent[tuple(sorted(rank_product(row, factors).items()))] += 1
    assert ascent.total() == len(pairs) < (n - 1) * math.factorial(n) // 2
    units = Counter(((v, 1),) for v in range(math.factorial(n)) if v <= mirror[v])
    assert units.total() == len({frozenset({v, m}) for v, m in enumerate(mirror)})
    assert expanded == ascent + units


def nonzero(column):
    return {v: c for v, c in column.items() if c}


def only_ints(columns):
    return all(type(c) is int for column in columns for c in column.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_t_ell_is_one_plus_s_ell_times_t_ell_plus_one(n):
    """The identity the recursion of checks._a_levels rests on, as group
    algebra elements under perms.compose; the other order is false below
    ell = n - 1."""
    one = AlgebraElement.one(n)
    assert build_t(n, n) == one
    for ell in range(1, n):
        s = AlgebraElement.from_perm(transposition(n, ell))
        assert build_t(n, ell) == one + s * build_t(n, ell + 1)
        assert (build_t(n, ell) == one + build_t(n, ell + 1) * s) == (ell == n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_r_s_ell_has_unit_descent_columns_and_integer_entries(n):
    """Where w(ell) > w(ell+1), a_w s_ell = a_w: the columns the recursion
    takes as units without expanding them are the units rmul_columns draws."""
    family = build_a_family(n)
    for ell in range(1, n):
        drawn = list(lex_columns(AlgebraElement.from_perm(transposition(n, ell)), family))
        assert {den for den, _ in drawn} == {1}
        columns = [nonzero(column) for _, column in drawn]
        assert only_ints(columns)
        descents = [p for p, w in enumerate(family.perms) if w[ell - 1] > w[ell]]
        assert len(descents) == len(family.perms) // 2
        assert all(columns[p] == {p: 1} for p in descents)
        assert list(checks._transposition_columns(family, ell, {})) == columns


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_each_mirrored_column_of_r_s_ell_is_its_direct_expansion(n):
    """With one waiting dict over the levels in the sweep's order, every
    column of each R(s_ell), read through the mirror map or expanded,
    equals the column rmul_columns draws, and nothing is left waiting."""
    family = build_a_family(n)
    waiting = {}
    for ell in range(n - 1, 0, -1):
        drawn = lex_columns(AlgebraElement.from_perm(transposition(n, ell)), family)
        assert list(checks._transposition_columns(family, ell, waiting)) == [nonzero(column) for _, column in drawn]
    assert waiting == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_each_level_of_the_recursion_is_the_a_matrix_of_r_t_ell(n):
    """Entry for entry, over d = 1 with int entries only: the a-basis is
    unitriangular over Z, so every A_ell is an integer matrix."""
    family = build_a_family(n)
    levels = list(checks._a_levels(family))
    assert [ell for ell, _ in levels] == list(range(n, 0, -1))
    for ell, level in levels:
        drawn = list(lex_columns(build_t(n, ell), family))
        assert {den for den, _ in drawn} == {1}
        assert level == [nonzero(column) for _, column in drawn]
        assert only_ints(level)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_recursion_gives_the_lines_of_the_direct_sweep(n):
    family, table = build_a_family(n), QIndexTable(n)
    lines = checks._sweep_lines(family, table)
    assert all(r.passed for results in lines for r in results)
    assert lines == direct_sweep_lines(family, table)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_recursion_matches_the_direct_sweep_under_random_q_index_swaps(n):
    family = build_a_family(n)
    rng = random.Random(n)
    failed = 0
    for _ in range(8):
        table = QIndexTable(n)
        u, v = rng.sample(family.perms, 2)
        table.index[u], table.index[v] = table[v], table[u]
        lines = checks._sweep_lines(family, table)
        assert lines == direct_sweep_lines(family, table)
        failed += not all(r.passed for results in lines for r in results)
    assert failed


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
    family, table = build_a_family(n), checks.QIndexTable(n)
    assert checks._sweep_lines(family, table) == direct_sweep_lines(family, table)


def dense_levels(family, s_columns):
    """columns(ell) for direct_sweep_lines from A_n = I and
    A_ell = I + A_{ell+1} S_ell, by dense integer matrix products over the
    columns s_columns(ell) of S_ell: each column of A_ell over d = 1, zeros
    left in."""
    n, size = family.n, len(family.perms)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    matrices = {n: identity}
    for ell in range(n - 1, 0, -1):
        s = [[0] * size for _ in range(size)]
        for p, column in enumerate(s_columns(ell)):
            for q, c in column.items():
                s[q][p] = c
        a = matrices[ell + 1]
        matrices[ell] = [
            [identity[i][j] + sum(a[i][k] * s[k][j] for k in range(size)) for j in range(size)] for i in range(size)
        ]
    return lambda ell: [(1, {v: matrices[ell][v][p] for v in range(size)}) for p in range(size)]


def filled_expansion(family, v, fill):
    """The family with fill at rank v of every column its expansion gives,
    unless the entry there is nonzero."""

    def expand(product):
        column = family.expand(product)
        if not column.get(v):
            column[v] = fill
        return column

    return BasisFamily(family.n, family.rows, family.kind, expand)


@pytest.mark.parametrize("fill, passed", [(0, True), (1, False)], ids=["zero", "one"])
def test_the_recursion_ignores_cancelled_zeros(fill, passed):
    """The a-family's expansion reaches the lines through the ascent columns
    of each R(s_ell), each filled here at rank 0, the identity.  A
    cancelled zero leaves every line passing, as the direct sweep over the
    same filled family reads them; a 1 fails every line but that of
    t_n = 1, and the lines are those read from I + A_{ell+1} S_ell by dense
    integer products over the filled S_ell, its descent columns units."""
    n = 4
    family, table = build_a_family(n), QIndexTable(n)
    mutated = filled_expansion(family, 0, fill)

    def s_columns(ell):
        drawn = lex_columns(AlgebraElement.from_perm(transposition(n, ell)), mutated)
        for p, (w, (_, column)) in enumerate(zip(family.perms, drawn)):
            yield {p: 1} if w[ell - 1] > w[ell] else column

    lines = checks._sweep_lines(mutated, table)
    assert lines == direct_sweep_lines(mutated, table, dense_levels(mutated, s_columns))
    for results in lines:
        assert [result.passed for result in results] == [passed] * (n - 1) + [True]
    if passed:
        assert lines == direct_sweep_lines(mutated, table)


@pytest.mark.parametrize("fill, passed", [(0, True), (1, False)], ids=["zero", "one"])
def test_the_direct_b_sweep_ignores_cancelled_zeros(fill, passed):
    """Every b-column the expansion gives holds fill at rank v unless its
    entry there is nonzero.  v reaches the diagonal of column r, the first
    in lex order with a rank that can, and no earlier column: a cancelled
    zero there leaves the sweep passing, a 1 fails it at column r."""
    n = 4
    b_family = dual_basis(build_a_family(n))
    table = QIndexTable(n)
    qind = [table[w] for w in b_family.perms]
    r = next(r for r in range(len(qind)) if any(v != r and qind[v] <= qind[r] for v in range(len(qind))))
    v = next(v for v in range(r + 1, len(qind)) if qind[v] <= qind[r])
    results = direct_b_lines(filled_expansion(b_family, v, fill), table)
    assert [result.passed for result in results] == [passed] * n
    if not passed:
        detail = f"column {b_family.perms[r]} reaches {b_family.perms[v]} with Qind {qind[v]} <= {qind[r]}"
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
