import random
from fractions import Fraction

import pytest

from cycleshuffles.algebra import AlgebraElement
from cycleshuffles.inputs import osc_weights, r2b_weights, t2r_weights, uniform_distribution, unweighted_weights
from cycleshuffles.perms import cycle, identity
from cycleshuffles.shuffles import build_osc, build_t, build_t_prime, combine, transition_matrix

T2R_3 = [
    ["1/3", "0", "1/3", "1/3", "0", "0"],
    ["0", "1/3", "0", "0", "1/3", "1/3"],
    ["1/3", "1/3", "1/3", "0", "0", "0"],
    ["0", "0", "0", "1/3", "1/3", "1/3"],
    ["1/3", "1/3", "0", "0", "1/3", "0"],
    ["0", "0", "1/3", "1/3", "0", "1/3"],
]

RTB_3 = [
    ["11/18", "1/6", "1/9", "1/9", "0", "0"],
    ["1/6", "11/18", "0", "0", "1/9", "1/9"],
    ["1/9", "1/9", "11/18", "1/6", "0", "0"],
    ["0", "0", "1/6", "11/18", "1/9", "1/9"],
    ["1/9", "1/9", "0", "0", "11/18", "1/6"],
    ["0", "0", "1/9", "1/9", "1/6", "11/18"],
]

UNWEIGHTED_3 = [
    ["1/2", "1/6", "1/6", "1/6", "0", "0"],
    ["1/6", "1/2", "0", "0", "1/6", "1/6"],
    ["1/6", "1/6", "1/2", "1/6", "0", "0"],
    ["0", "0", "1/6", "1/2", "1/6", "1/6"],
    ["1/6", "1/6", "0", "0", "1/2", "1/6"],
    ["0", "0", "1/6", "1/6", "1/6", "1/2"],
]


def as_fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def test_build_t_examples():
    assert build_t(3, 1) == AlgebraElement(
        3, {identity(3): 1, cycle(3, (1, 2)): 1, cycle(3, (1, 2, 3)): 1}
    )
    for n in range(1, 9):
        assert build_t(n, n) == AlgebraElement.one(n)
        for ell in range(1, n + 1):
            assert len(build_t(n, ell)) == n - ell + 1
    with pytest.raises(ValueError):
        build_t(3, 4)


def test_build_t_prime_examples():
    for n in range(1, 7):
        for ell in range(1, n + 1):
            assert build_t_prime(n, ell) == build_t(n, ell).antipode()
        assert build_t_prime(n, n) == AlgebraElement.one(n)
    assert build_t_prime(3, 1).coefficient(cycle(3, (3, 2, 1))) == 1


def test_t_recursion():
    # t_ell = 1 + s_ell t_{ell+1}
    for n in range(2, 8):
        one = AlgebraElement.one(n)
        for ell in range(1, n):
            s = AlgebraElement.from_perm(cycle(n, (ell, ell + 1)))
            assert build_t(n, ell) == one + s * build_t(n, ell + 1)


def test_build_osc_examples():
    n = 3
    assert build_osc([1, 0, 0]) == build_t(n, 1).scale(Fraction(1, 3))
    rtb = build_osc(uniform_distribution(3))
    assert rtb.coefficient(identity(3)) == Fraction(11, 18)
    unweighted = build_osc([Fraction(2 * (n - i + 1), n * (n + 1)) for i in range(1, n + 1)])
    assert unweighted.coefficient(identity(3)) == Fraction(1, 2)


def test_build_osc_validates_distribution():
    with pytest.raises(ValueError):
        build_osc([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        build_osc([Fraction(3, 2), Fraction(-1, 2)])


def test_named_weights():
    n = 4
    assert t2r_weights(n) == (Fraction(1, 4), 0, 0, 0)
    assert r2b_weights(n) == tuple(Fraction(1, n * (n + 1 - ell)) for ell in range(1, n + 1))
    assert unweighted_weights(n) == tuple([Fraction(2, n * (n + 1))] * n)
    assert combine(t2r_weights(n)) == build_osc([1, 0, 0, 0])


def test_osc_weights_scaling():
    probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert osc_weights(probs) == (Fraction(1, 6), Fraction(1, 8), Fraction(1, 4))


def test_printed_transition_matrices():
    assert transition_matrix(build_osc([1, 0, 0])).rows == as_fractions(T2R_3)
    assert transition_matrix(build_osc(uniform_distribution(3))).rows == as_fractions(RTB_3)
    n = 3
    unweighted = build_osc([Fraction(2 * (n - i + 1), n * (n + 1)) for i in range(1, n + 1)])
    assert transition_matrix(unweighted).rows == as_fractions(UNWEIGHTED_3)


def test_transition_matrix_identity_element():
    tm = transition_matrix(AlgebraElement.one(3))
    for i, row in enumerate(tm.rows):
        assert row[i] == 1 and sum(row) == 1


def test_transition_matrix_rows_sum_to_one_random_p():
    rng = random.Random(23)
    for n in range(2, 6):
        for _ in range(3):
            raw = [Fraction(rng.randrange(1, 9), rng.randrange(9, 20)) for _ in range(n)]
            total = sum(raw)
            probs = [p / total for p in raw]
            tm = transition_matrix(build_osc(probs))
            assert all(sum(row) == 1 for row in tm.rows)


def test_transition_matrix_entries_are_exact_rationals():
    tm = transition_matrix(build_osc([1, 0, 0]))
    assert tm.rows[0][0] == Fraction(1, 3)
    assert float(tm.rows[0][0]) == pytest.approx(1 / 3)
    assert all(isinstance(v, (int, Fraction)) for row in tm.rows for v in row)


def test_transition_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        transition_matrix(build_t(3, 1))  # coefficients sum to 3
    bad = combine([Fraction(3, 2), 0, Fraction(-1, 2)])
    with pytest.raises(ValueError):
        transition_matrix(bad)
    with pytest.raises(ValueError):
        transition_matrix(build_osc(uniform_distribution(9)))  # over the cap
