import random

import pytest
from hypothesis import given, strategies as st

from cycleshuffles.perms import (
    all_permutations,
    compose,
    cycle,
    descent_set,
    format_permutation,
    identity,
    inverse,
)


def random_perm(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_identity_examples():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)
    with pytest.raises(ValueError):
        identity(0)
    # S_n is enumerated in lexicographic order, from the identity to the reversal
    words = list(all_permutations(4))
    assert words == sorted(words)
    assert words[0] == identity(4) and words[-1] == (4, 3, 2, 1)


def test_identity_is_neutral():
    rng = random.Random(1)
    for _ in range(50):
        w = random_perm(rng, 4)
        assert compose(identity(4), w) == w
        assert compose(w, identity(4)) == w


def test_compose_convention():
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    s1 = cycle(3, (1, 2))
    assert compose(s1, s1) == identity(3)


def test_compose_noncommutativity_witness():
    a, b = cycle(3, (1, 2)), cycle(3, (2, 3))
    assert compose(a, b) != compose(b, a)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_compose_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        p, q, r = (random_perm(rng, n) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_inverse_roundtrip(p):
    assert compose(p, inverse(p)) == identity(len(p))
    assert compose(inverse(p), p) == identity(len(p))


def test_inverse_antihomomorphism():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 8)
        p, q = random_perm(rng, n), random_perm(rng, n)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


def test_cycle_examples():
    assert cycle(3, (1, 2, 3)) == (2, 3, 1)
    assert cycle(3, (2,)) == identity(3)
    assert cycle(4, (2, 3, 4)) == (1, 3, 4, 2)


def test_cycle_rejects_bad_indices():
    with pytest.raises(ValueError):
        cycle(3, (1, 1))
    with pytest.raises(ValueError):
        cycle(3, (1, 4))
    with pytest.raises(ValueError):
        cycle(3, ())


def test_descent_set_examples():
    assert descent_set((3, 2, 4, 1)) == frozenset({1, 3})
    for n in range(1, 7):
        assert descent_set(identity(n)) == frozenset()
        assert descent_set(tuple(range(n, 0, -1))) == frozenset(range(1, n))


def test_format_permutation():
    assert format_permutation((3, 2, 4, 1)) == "3,2,4,1"
    assert format_permutation((1,)) == "1"
