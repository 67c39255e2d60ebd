import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycleshuffles.algebra import (
    AlgebraElement,
    _gather_table,
    bilinear_form,
    linear_combine,
    rmul_terms,
)
from cycleshuffles.inputs import require_within_cap
from cycleshuffles.perms import all_permutations, compose, cycle, identity, inverse
from cycleshuffles.shuffles import build_t, build_t_prime


def random_element(rng, n, terms=4):
    words = [list(range(1, n + 1)) for _ in range(terms)]
    for w in words:
        rng.shuffle(w)
    return AlgebraElement(
        n, {tuple(w): Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for w in words}
    )


def test_zero_coefficients_never_stored():
    x = AlgebraElement(3, {identity(3): 0, (2, 1, 3): 1})
    assert len(x) == 1
    assert x.coefficient(identity(3)) == 0


def test_degree_validation():
    with pytest.raises(ValueError):
        AlgebraElement(3, {(1, 2): 1})
    with pytest.raises(ValueError):
        AlgebraElement(2, {(1, 2): 1}) + AlgebraElement(3, {identity(3): 1})


def test_linear_combine():
    x = AlgebraElement.from_perm(identity(3))
    assert linear_combine([(1, x), (-1, x)]).is_zero()
    t1 = build_t(3, 1)
    assert linear_combine([(1, t1)]) == t1
    half = Fraction(1, 2)
    assert linear_combine([(half, x), (half, x)]) == x
    # a term that cancels and comes back, with unit and non-unit weights
    assert linear_combine([(1, t1), (-1, t1), (half, t1), (1, x)]) == x + t1.scale(half)


def test_rational_scalars_add_as_multiples_of_one():
    rng = random.Random(5)
    for n in range(1, 5):
        x = random_element(rng, n)
        one = AlgebraElement.one(n)
        assert x + 0 == x and x - 0 == x
        assert x - x + Fraction(1, 2) == one.scale(Fraction(1, 2))
        for c in (3, -2, Fraction(-7, 3)):
            assert x + c == x + one.scale(c)
            assert x - c == x + one.scale(-c)
        assert (x - x.coefficient(identity(n))).coefficient(identity(n)) == 0
        with pytest.raises(ValueError, match="degree mismatch"):
            x + AlgebraElement.one(n + 1)
        with pytest.raises(ValueError, match="degree mismatch"):
            x - AlgebraElement.one(n + 1)


def test_multiply_unit_and_examples():
    # t_n is the identity element
    for n in range(1, 6):
        assert build_t(n, n) == AlgebraElement.one(n)
    s1 = AlgebraElement.from_perm(cycle(2, (1, 2)))
    one = AlgebraElement.one(2)
    assert ((one + s1) * (one - s1)).is_zero()
    t1 = build_t(2, 1)
    assert t1 * t1 == 2 * t1


def test_multiply_associative_and_unital():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 7)
        x, y, z = (random_element(rng, n) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert AlgebraElement.one(n) * x == x == x * AlgebraElement.one(n)


def test_multiply_term_count_bound():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(2, 6)
        x, y = random_element(rng, n), random_element(rng, n)
        assert len(x * y) <= len(x) * len(y)


def test_power_by_squaring():
    t1 = build_t(3, 1)
    assert t1**0 == AlgebraElement.one(3)
    assert t1**3 == t1 * t1 * t1
    with pytest.raises(ValueError):
        t1 ** (-1)


def test_antipode_on_cycles():
    x = AlgebraElement.from_perm(cycle(3, (1, 2, 3)))
    assert x.antipode() == AlgebraElement.from_perm(cycle(3, (3, 2, 1)))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_antipode_involution_and_antihomomorphism(n, rnd):
    x, y = random_element(rnd, n), random_element(rnd, n)
    assert x.antipode().antipode() == x
    assert (x * y).antipode() == y.antipode() * x.antipode()


def test_antipode_sends_t_to_t_prime():
    for n in range(1, 7):
        for ell in range(1, n + 1):
            assert build_t(n, ell).antipode() == build_t_prime(n, ell)


def test_coefficient_examples():
    for n in range(1, 6):
        assert build_t(n, 1).coefficient(identity(n)) == 1
    t2 = build_t(3, 2)
    assert t2.coefficient(cycle(3, (2, 3))) == 1
    assert AlgebraElement.zero(3).coefficient(identity(3)) == 0


def test_bilinear_form_orthonormal_on_permutations():
    for p in all_permutations(3):
        for q in all_permutations(3):
            xp, xq = AlgebraElement.from_perm(p), AlgebraElement.from_perm(q)
            assert bilinear_form(xp, xq) == (1 if p == q else 0)
    assert bilinear_form(build_t(3, 1), AlgebraElement.zero(3)) == 0


def test_bilinear_form_gram_matrix_is_identity():
    # symmetry plus nondegeneracy on the standard basis
    rng = random.Random(3)
    for _ in range(40):
        x, y = random_element(rng, 4), random_element(rng, 4)
        assert bilinear_form(x, y) == bilinear_form(y, x)


def test_antipode_adjoint_for_bilinear_form():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 6)
        u, v, x = (random_element(rng, n) for _ in range(3))
        assert bilinear_form(u, v * x.antipode()) == bilinear_form(u * x, v)


def test_cap_enforcement(monkeypatch):
    require_within_cap(8)
    with pytest.raises(ValueError):
        require_within_cap(9)
    require_within_cap(9, 10)
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", "9")
    require_within_cap(9)


def product_oracle(x, y):
    """The plain dict/compose product over Fractions, one term pair at a
    time: the reference for the rmul_terms kernel."""
    terms = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            w = compose(u, v)
            s = terms.get(w, 0) + cu * cv
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
    return terms


def element_on(rng, n, size):
    """Random Fraction coefficients on `size` distinct permutations."""
    support = rng.sample(list(all_permutations(n)), size)
    return AlgebraElement(
        n,
        {w: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 7), rng.randrange(1, 6)) for w in support},
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rmul_terms_matches_the_compose_oracle(n):
    rng = random.Random(700 + n)
    full = math.factorial(n)
    sizes = sorted({1, min(3, full), max(1, full // 4), full})
    _gather_table.cache_clear()
    for _ in range(6):
        for left in sizes:
            for right in sizes:
                x, y = element_on(rng, n, left), element_on(rng, n, right)
                assert rmul_terms(x.terms, y.terms, n) == product_oracle(x, y)
    # the dense left factors above went through the gather tables
    assert _gather_table.cache_info().misses > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rmul_terms_cancels_to_zero(n):
    rng = random.Random(800 + n)
    one = AlgebraElement.one(n)
    s1 = AlgebraElement.from_perm(cycle(n, (1, 2)))
    for size in (1, math.factorial(n)):
        z = element_on(rng, n, size)
        x = AlgebraElement(n, product_oracle(z, one + s1))
        # z (1 + s_1)(1 - s_1) = 0 exactly, while z (1 + s_1)(1 + s_1) = 2 z (1 + s_1)
        assert rmul_terms(x.terms, (one - s1).terms, n) == {} == product_oracle(x, one - s1)
        assert rmul_terms(x.terms, (one + s1).terms, n) == product_oracle(x, one + s1)


def test_rmul_terms_keeps_integers_and_reduces_fractions():
    x = AlgebraElement(3, {(1, 2, 3): 3, (2, 1, 3): -1})
    product = rmul_terms(x.terms, {(2, 1, 3): 2}, 3)
    assert product == {(2, 1, 3): 6, (1, 2, 3): -2}
    assert all(type(c) is int for c in product.values())
    half = rmul_terms({(1, 2, 3): 3}, {(1, 2, 3): Fraction(2, 12)}, 3)
    assert half[(1, 2, 3)] == Fraction(1, 2) and half[(1, 2, 3)].denominator == 2
