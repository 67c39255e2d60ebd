import math

import pytest

from cycleshuffles.algebra import AlgebraElement
from cycleshuffles.identities import (
    commutator,
    commutator_nilpotency,
    identity_suite,
    nilpotency_exponent,
    separate_nilpotency_exponents,
)
from cycleshuffles.shuffles import build_t


def test_nilpotency_exponent_values():
    assert nilpotency_exponent(6, 1, 3) == 3  # min(3, ceil(3/2)+1 = 3)
    assert nilpotency_exponent(5, 1, 2) == 2
    assert nilpotency_exponent(8, 1, 7) == 2  # ceil(1/2)+1 beats j-i+1 = 7
    assert nilpotency_exponent(6, 2, 6) == 1  # t_n is central (it is 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_commutator_squares_vanish_up_to_n5(n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            com = commutator(build_t(n, i), build_t(n, j))
            assert (com * com).is_zero()


def test_sharpness_witness_at_n6():
    com = commutator(build_t(6, 1), build_t(6, 3))
    assert not (com * com).is_zero()
    assert (com * com * com).is_zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_commutator_nilpotency_report(n):
    report = commutator_nilpotency(n)
    assert report.all_passed
    if n == 6:
        names = [c.name for c in report.checks]
        assert "commutator_power_sharp_nonzero" in names
        assert "commutator_power_sharp_zero" in names


@pytest.mark.parametrize("n", range(2, 7))
def test_separate_exponents_each_sufficient(n):
    assert separate_nilpotency_exponents(n).all_passed


@pytest.mark.parametrize("n", range(2, 7))
def test_identity_suite_passes(n):
    report = identity_suite(n)
    assert report.all_passed
    assert not report.failures()


def test_identity_suite_spot_checks():
    one4 = AlgebraElement.one(4)
    t = {ell: build_t(4, ell) for ell in range(1, 5)}
    assert t[2] * t[1] == (t[1] - one4) * t[1]
    one5 = AlgebraElement.one(5)
    t5 = {ell: build_t(5, ell) for ell in range(1, 6)}
    assert t5[3] * (t5[1] - one5) == (t5[1] - one5) * (t5[2] - one5)


def test_trivial_self_commutator():
    t2 = build_t(4, 2)
    assert commutator(t2, t2).is_zero()


def mixed_commutator_product(n, j, ks):
    """[t_{k_1}, t_j] [t_{k_2}, t_j] ... for indices 1 <= k <= j <= n."""
    tj = build_t(n, j)
    return math.prod((commutator(build_t(n, k), tj) for k in ks), start=AlgebraElement.one(n))


def test_mixed_commutator_products_vanish_under_theorem_hypotheses():
    n = 5
    # m >= j - k_m + 1 with k values weakly below j
    assert mixed_commutator_product(n, 4, [2, 3, 4]).is_zero()
    assert mixed_commutator_product(n, 3, [1, 2, 3]).is_zero()
    # 2m >= n - j + 2
    assert mixed_commutator_product(n, 3, [1, 1]).is_zero()


def test_failure_diagnostics_report_surviving_terms():
    # feed a deliberately false identity through the same bookkeeping
    from cycleshuffles.identities import _zero_check

    residual = build_t(3, 1) - build_t(3, 2)
    check = _zero_check("bogus", (1, 2), residual)
    assert not check.passed
    assert check.residual_terms == len(residual)
    assert check.smallest_surviving == residual.lex_smallest_term()
