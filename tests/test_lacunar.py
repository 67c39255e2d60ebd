import re

import pytest

from cycleshuffles.lacunar import (
    catalog_rows,
    enumerate_lacunar,
    fibonacci,
    format_subset,
    gap_table,
    gap_texts,
    is_lacunar,
    lacunar_masks,
    locate_interval,
    m_vector,
    non_shadow,
    set_to_mask,
    walk_gaps,
)


def _bits(mask):
    """Reference members of a mask, one bit at a time."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_fibonacci_convention():
    assert [fibonacci(m) for m in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_is_lacunar_examples():
    assert is_lacunar({1, 4, 6})
    assert not is_lacunar({1, 4, 5})
    assert is_lacunar(set())


def test_lacunar_predicate_matches_shift_characterization():
    # lacunar iff the set misses its own shift by one
    for n in range(1, 13):
        for mask in range(1 << (n - 1)):
            members = {i + 1 for i in range(n - 1) if mask >> i & 1}
            assert is_lacunar(members) == (not members & {i - 1 for i in members})


def test_counts_match_fibonacci():
    for n in range(1, 21):
        assert len(lacunar_masks(n)) == fibonacci(n + 1)
        assert len(enumerate_lacunar(n)) == fibonacci(n + 1)


def two_list_masks(n_max):
    """The recursion of lacunar_masks on two fresh lists per step, the
    oracle for its one list grown in place: yields the masks of n = 1..n_max."""
    prev_prev, prev = [0], [0]
    yield prev
    for m in range(1, n_max):
        prev_prev, prev = prev, prev + [mask | 1 << m for mask in prev_prev]
        yield prev


def test_masks_grown_in_place_equal_the_two_list_recursion():
    for n, expected in enumerate(two_list_masks(30), start=1):
        assert lacunar_masks(n) == expected


def test_catalog_order_small_n():
    assert [sorted(s) for s in enumerate_lacunar(4).sets] == [[], [1], [2], [3], [1, 3]]
    assert [sorted(s) for s in enumerate_lacunar(5).sets] == [
        [], [1], [2], [3], [4], [1, 3], [1, 4], [2, 4]]
    sets6 = [sorted(s) for s in enumerate_lacunar(6).sets]
    assert len(sets6) == 13
    assert sets6[-1] == [1, 3, 5]
    assert sets6 == [
        [], [1], [2], [3], [4], [1, 3], [5], [1, 4], [1, 5], [2, 4], [2, 5], [3, 5], [1, 3, 5]]


def test_catalog_order_is_sum_then_descending_mask():
    for n in range(1, 15):
        masks = sorted(lacunar_masks(n), key=lambda m: (sum(_bits(m)), -m))
        catalog = enumerate_lacunar(n)
        assert catalog.masks == tuple(masks)
        assert catalog.members == tuple(map(_bits, masks))
        assert catalog.sets == tuple(frozenset(_bits(m)) for m in masks)
        assert [catalog.row(i) for i in range(1, len(catalog) + 1)] == list(catalog.members)


def _member_cells(n):
    """catalog_rows cells that give each row's members and bitmask."""
    return [[((a,) if a else (), (), 1 << a if a else 0, 1)] * (n + 2) for a in range(n + 1)]


@pytest.mark.parametrize("n", range(1, 21))
def test_catalog_rows_are_the_sorted_catalog(n):
    masks = sorted(lacunar_masks(n), key=lambda m: (sum(_bits(m)), -m))
    rows = list(catalog_rows(n, _member_cells(n)))
    assert len(rows) == fibonacci(n + 1)
    assert [members for members, _, _, _ in rows] == [_bits(m) for m in masks]
    assert [mask for _, _, mask, _ in rows] == masks


def test_catalog_rows_at_one_and_two_cards():
    assert list(catalog_rows(1, _member_cells(1))) == [((), (), 0, 1)]
    assert list(catalog_rows(2, _member_cells(2))) == [((), (), 0, 1), ((1,), (), 2, 1)]
    assert [len(enumerate_lacunar(n)) for n in (1, 2)] == [1, 2]
    with pytest.raises(ValueError, match="degree must be at least 1"):
        enumerate_lacunar(0)


@pytest.mark.parametrize("n", range(1, 15))
def test_catalog_rows_carry_the_gap_walk(n):
    # the walk folded down the recursion equals walk_gaps on each row
    numerators = tuple(range(3, 3 + n))
    cells = [
        [cell and ((a,) if a else (), *cell) for cell in gaps]
        for a, gaps in enumerate(gap_table(n, numerators))
    ]
    table = gap_table(n, numerators)
    for members, m, g, d in catalog_rows(n, cells):
        assert walk_gaps(members, table) == (m, g, d)


@pytest.mark.parametrize(
    "form", [("{", ",", "}"), ("(", ", ", ")"), ("", " ", ""), ("[\n  ", ",\n  ", "\n]")]
)
def test_gap_texts_print_each_row(form):
    opening, joiner, closing = form
    empty = opening.strip() + closing.strip()

    def printed(items):
        return opening + joiner.join(map(str, items)) + closing if items else empty

    for n in range(1, 11):
        texts = gap_texts(n, *form)
        for members in enumerate_lacunar(n).members:
            pieces = [texts[a][b] for a, b in zip((0, *members), (*members, n + 1))]
            assert "".join(p[0] for p in pieces) == printed(members)
            assert "".join(p[1] for p in pieces) == printed(m_vector(members, n))
            assert "".join(p[2] for p in pieces) == "".join(
                joiner + str(i) for i in sorted(non_shadow(members, n)))


def test_catalog_sums_weakly_increase():
    for n in range(1, 15):
        sums = [sum(s) for s in enumerate_lacunar(n).sets]
        assert sums == sorted(sums)


def test_catalog_index_lookup():
    catalog = enumerate_lacunar(5)
    assert catalog[1] == frozenset()
    assert catalog[6] == frozenset({1, 3})
    with pytest.raises(IndexError):
        catalog[9]
    with pytest.raises(IndexError):
        catalog[0]
    assert catalog.row(6) == (1, 3)
    for i in (0, 9, -1):
        with pytest.raises(IndexError, match=re.escape(f"catalog index {i} outside [1, 8]")):
            catalog.row(i)


def _m_by_scan(members, n):
    """Reference m vector: for each ell, scan the set for the least member in
    [ell, n], or take n + 1 when there is none."""
    out = []
    for ell in range(1, n + 1):
        best = n + 1
        for i in members:
            if ell <= i < best:
                best = i
        out.append(best - ell)
    return tuple(out)


def _non_shadow_by_set(members, n):
    """Reference non-shadow: the i in [n-1] with neither i nor i+1 in the set."""
    s = set(members)
    return frozenset(i for i in range(1, n) if i not in s and i + 1 not in s)


def test_m_value_examples():
    assert m_vector({2, 3}, 5) == (1, 0, 0, 2, 1)
    for n in range(1, 8):
        assert m_vector(set(), n) == tuple(n + 1 - ell for ell in range(1, n + 1))
    for ell in (2, 3):
        assert m_vector({2, 3}, 5)[ell - 1] == 0
    with pytest.raises(IndexError):
        m_vector({1}, 4)[5 - 1]


def test_m_value_range():
    for n in range(1, 9):
        for mask in range(1 << n):
            members = {i + 1 for i in range(n) if mask >> i & 1}
            for ell in range(1, n + 1):
                assert 0 <= m_vector(members, n)[ell - 1] <= n + 1 - ell


def test_m_vector_matches_the_per_position_scan():
    # every subset of [n], alone and with members outside [1, n] mixed in
    for n in range(1, 11):
        for mask in range(1 << n):
            members = {i + 1 for i in range(n) if mask >> i & 1}
            for extra in ((), (0,), (n + 1,), (-1, 0, n + 1, n + 5)):
                both = members | set(extra)
                assert m_vector(both, n) == _m_by_scan(both, n), (n, both)


def test_non_shadow_examples():
    assert non_shadow({2, 3}, 5) == frozenset({4})
    assert non_shadow({1}, 4) == frozenset({2, 3})
    for n in range(1, 8):
        assert non_shadow(set(), n) == frozenset(range(1, n))


def test_non_shadow_masks_match_non_shadow():
    for n in range(1, 17):
        catalog = enumerate_lacunar(n)
        expected = [_non_shadow_by_set(s, n) for s in catalog.sets]
        assert [non_shadow(s, n) for s in catalog.sets] == expected
        assert catalog.non_shadow_masks == tuple(set_to_mask(e) for e in expected)
    for n in range(1, 9):
        for mask in range(1 << n):
            members = {i + 1 for i in range(n) if mask >> i & 1} | {-2, 0, n + 1, n + 3}
            assert non_shadow(members, n) == _non_shadow_by_set(members, n), (n, members)


def test_locate_interval_examples():
    assert locate_interval({1, 2}, 4) == frozenset({3})
    assert locate_interval({1, 2, 3}, 4) == frozenset()
    assert locate_interval(set(), 4) == frozenset({1, 3})


def test_locate_interval_unique_everywhere_small():
    for n in range(1, 10):
        for mask in range(1 << (n - 1)):
            members = {i + 1 for i in range(n - 1) if mask >> i & 1}
            found = locate_interval(members, n)
            assert non_shadow(found, n) <= members
            assert not members & found


def test_locate_interval_rejects_oversized_subsets():
    for members in ({4}, {0}, {-1}, {1, 0}):
        with pytest.raises(ValueError, match=re.escape(f"{members} is not a subset of [3]")):
            locate_interval(members, 4)


def test_format_subset():
    assert format_subset({3, 1}) == "{1,3}"
    assert format_subset(set()) == "{}"
