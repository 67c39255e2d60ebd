import copy
import operator
import re
from fractions import Fraction

import pytest

from cycleshuffles import checks, lacunar
from cycleshuffles.basis import BasisFamily, QIndexTable, build_a_family, dual_basis
from cycleshuffles.inputs import SUITE_NAMES
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


def test_duality_builds_one_family_and_one_dual_basis(monkeypatch):
    calls = {"build_a_family": 0, "dual_basis": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(checks, "build_a_family", counted("build_a_family", checks.build_a_family))
    monkeypatch.setattr(checks, "dual_basis", counted("dual_basis", checks.dual_basis))
    results = checks.check_duality(4)
    assert all(r.passed for r in results)
    assert calls == {"build_a_family": 1, "dual_basis": 1}


TRIANGULARITY_CHECKS = [
    ("triangularity", checks.check_triangularity),
    ("duality", lambda n: [r for r in checks.check_duality(n) if "upper-triangular" in r.name]),
]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("suite, run", TRIANGULARITY_CHECKS)
def test_triangularity_fails_on_a_diagonal_off_by_one(n, suite, run, monkeypatch):
    real = checks.m_vector
    monkeypatch.setattr(checks, "m_vector", lambda subset, n: tuple(m + 1 for m in real(subset, n)))
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


@pytest.mark.parametrize("suite, run", TRIANGULARITY_CHECKS)
def test_triangularity_fails_when_two_q_indices_are_swapped(suite, run, monkeypatch):
    real = checks.QIndexTable
    u, v = SWAPS[suite]

    def swapped(n, max_n=None):
        table = real(n, max_n)
        assert table[u] != table[v]
        table.index[u], table.index[v] = table[v], table[u]
        return table

    monkeypatch.setattr(checks, "QIndexTable", swapped)
    sign = ">=" if suite == "triangularity" else "<="
    failed = [r for r in run(3) if not r.passed]
    assert failed
    for result in failed:
        assert result.suite == suite
        assert re.fullmatch(rf"column \(.*\) reaches \(.*\) with Qind \d+ {sign} \d+", result.detail)


@pytest.mark.parametrize("fill, passed", [(0, True), (1, False)], ids=["zero", "one"])
@pytest.mark.parametrize("build", [build_a_family, lambda n: dual_basis(build_a_family(n))], ids=["a", "b"])
def test_the_sweeps_ignore_cancelled_zeros(build, fill, passed):
    """Every column the expansion gives holds fill at rank v unless its entry
    there is nonzero.  v reaches the diagonal of column r, the first in lex
    order with a rank that can, and no earlier column: a cancelled zero
    there leaves every sweep passing, a 1 fails each at column r."""
    n = 4
    real = build(n)
    table = QIndexTable(n)
    qind = [table[w] for w in real.perms]
    reaches, sign = (operator.ge, ">=") if real.kind == "a" else (operator.le, "<=")
    r = next(r for r in range(len(qind)) if any(v != r and reaches(qind[v], qind[r]) for v in range(len(qind))))
    v = next(v for v in range(r + 1, len(qind)) if reaches(qind[v], qind[r]))

    def expand(product):
        column = real.expand(product)
        if not column.get(v):
            column[v] = fill
        return column

    results = checks._triangularity(BasisFamily(n, real.rows, real.kind, expand), table)
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
