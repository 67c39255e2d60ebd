import itertools
import math
import random
from fractions import Fraction

import pytest

from cycleshuffles import basis, checks
from cycleshuffles.algebra import AlgebraElement, bilinear_form, linear_combine
from cycleshuffles.basis import (
    QIndexTable,
    a_element,
    basis_order,
    build_a_family,
    build_std_family,
    dual_basis,
    expand_in_a,
    expand_in_b,
    filtration_dimensions,
    q_index,
    rmul_columns,
    rmul_matrix,
)
from cycleshuffles.inputs import uniform_distribution
from cycleshuffles.lacunar import enumerate_lacunar, locate_interval, m_vector, non_shadow
from cycleshuffles.perms import all_permutations, compose, cycle, descent_set, identity
from cycleshuffles.shuffles import (
    build_osc,
    build_t,
    build_t_prime,
    combine,
    transition_matrix,
)


def element(n, *words):
    return AlgebraElement(n, {w: 1 for w in words})


def test_a_element_table_n3():
    assert a_element((1, 2, 3)) == element(3, (1, 2, 3))
    assert a_element((1, 3, 2)) == element(3, (1, 3, 2), (1, 2, 3))
    assert a_element((2, 1, 3)) == element(3, (2, 1, 3), (1, 2, 3))
    assert a_element((2, 3, 1)) == element(3, (2, 3, 1), (2, 1, 3))
    assert a_element((3, 1, 2)) == element(3, (3, 1, 2), (1, 3, 2))
    assert a_element((3, 2, 1)) == element(3, *all_permutations(3))


def _index_blocks(n, indices):
    """Maximal runs of consecutive generator indices, as position blocks.

    A run {a, a+1, ..., b} of adjacent-transposition indices generates the
    full symmetric group on positions a..b+1.
    """
    idx = sorted(set(indices))
    for i in idx:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} outside [1, {n - 1}]")
    blocks = []
    k = 0
    while k < len(idx):
        start = idx[k]
        while k + 1 < len(idx) and idx[k + 1] == idx[k] + 1:
            k += 1
        blocks.append(range(start, idx[k] + 2))
        k += 1
    return blocks


def young_subgroup(n, indices):
    """All elements of the subgroup of S_n generated by {s_i : i in indices}.

    The generated group is a direct product of symmetric groups on the
    maximal runs of consecutive indices, so it is enumerated block by block
    rather than by generic closure.
    """
    blocks = _index_blocks(n, indices)
    members = []
    per_block = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*per_block):
        word = list(range(1, n + 1))
        for block, images in zip(blocks, choice):
            for pos, img in zip(block, images):
                word[pos - 1] = img
        members.append(tuple(word))
    return members


def test_young_subgroup_examples():
    assert sorted(young_subgroup(3, {2})) == [(1, 2, 3), (1, 3, 2)]
    assert len(young_subgroup(3, {1, 2})) == 6
    assert len(young_subgroup(5, {2, 4})) == 4


def test_young_subgroup_sizes_divide_factorial():
    for n in range(2, 8):
        for mask in range(1 << (n - 1)):
            members = {i + 1 for i in range(n - 1) if mask >> i & 1}
            size = len(young_subgroup(n, members))
            assert math.factorial(n) % size == 0
            # the product of block factorials is the expected group order
            expected = 1
            run = 0
            for i in range(1, n):
                if i in members:
                    run += 1
                else:
                    expected *= math.factorial(run + 1) if run else 1
                    run = 0
            expected *= math.factorial(run + 1) if run else 1
            assert size == expected


def test_young_subgroup_rejects_out_of_range():
    with pytest.raises(ValueError):
        young_subgroup(3, {3})


def test_a_element_matches_young_subgroup_definition():
    for n in range(1, 6):
        for w in all_permutations(n):
            group = young_subgroup(n, descent_set(w))
            expected = element(n, *(compose(w, sigma) for sigma in group))
            assert a_element(w) == expected


def test_a_element_lex_leading_term():
    # a_w = w plus strictly lex-smaller permutations, coefficient 1 throughout
    for n in range(1, 7):
        for w in all_permutations(n):
            aw = a_element(w)
            assert aw.coefficient(w) == 1
            assert all(c == 1 for c in aw.terms.values())
            assert all(v <= w for v in aw.terms)


def test_q_index_examples():
    assert q_index((4, 3, 1, 2), enumerate_lacunar(4)) == 4
    assert q_index((1, 2, 3, 4), enumerate_lacunar(4)) == 5
    for n in range(2, 7):
        assert q_index(tuple(range(n, 0, -1)), enumerate_lacunar(n)) == 1


def test_q_index_equivalent_characterization():
    # Qind w = i iff non_shadow(Q_i) <= Des w <= complement of Q_i
    for n in range(2, 7):
        catalog = enumerate_lacunar(n)
        for w in all_permutations(n):
            i = q_index(w, catalog)
            des = descent_set(w)
            assert non_shadow(catalog[i], n) <= des
            assert not des & catalog[i]


@pytest.mark.parametrize("n", range(1, 9))
def test_first_non_shadow_inside_j_is_its_boolean_interval(n):
    # the intervals [non_shadow(I), [n-1] - I] over lacunar I partition the
    # subsets J of [n-1]; the first catalog position whose non-shadow lies in
    # J is the position of J's interval, and Qind w is that position for Des w
    catalog = enumerate_lacunar(n)
    position = {members: i for i, members in enumerate(catalog.sets, start=1)}
    first = {}
    for j_mask in range(1 << (n - 1)):
        j = frozenset(i for i in range(1, n) if j_mask >> (i - 1) & 1)
        first[j] = next(i for i in range(1, len(catalog) + 1) if non_shadow(catalog[i], n) <= j)
        assert first[j] == position[locate_interval(j, n)], sorted(j)
    if n <= 6:
        table = QIndexTable(n)
        for w in all_permutations(n):
            assert table[w] == first[frozenset(descent_set(w))], w


def test_q_index_table_counts():
    table = QIndexTable(4)
    assert len(table.index) == 24
    assert table[(4, 3, 1, 2)] == 4


def test_expand_in_a_is_inverse_of_building():
    family = build_a_family(4)
    for w in family.perms:
        assert expand_in_a(family[w], family) == {w: 1}
    # round-trip a generic combination
    combo = family[(2, 1, 4, 3)] * 3 - family[(1, 3, 2, 4)]
    assert expand_in_a(combo, family) == {(2, 1, 4, 3): 3, (1, 3, 2, 4): -1}


def test_printed_expansion_of_a4312_times_t2():
    family = build_a_family(4)
    got = expand_in_a(family[(4, 3, 1, 2)] * build_t(4, 2), family)
    assert got == {
        (4, 3, 1, 2): 1,
        (4, 3, 2, 1): 1,
        (4, 2, 3, 1): -1,
        (3, 2, 4, 1): -1,
        (2, 1, 4, 3): -1,
    }


def test_dual_basis_small_cases():
    fam1 = build_a_family(1)
    assert dual_basis(fam1)[(1,)] == element(1, (1,))
    fam2 = build_a_family(2)
    b = dual_basis(fam2)
    assert b[(1, 2)] == AlgebraElement(2, {(1, 2): 1, (2, 1): -1})
    assert b[(2, 1)] == AlgebraElement(2, {(2, 1): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_matrix_identity(n):
    family = build_a_family(n)
    b_family = dual_basis(family)
    for p in family.perms:
        for q in family.perms:
            assert bilinear_form(family[p], b_family[q]) == (p == q)


def test_expand_in_b_recovers_dual_coefficients():
    family = build_a_family(3)
    b_family = dual_basis(family)
    y = b_family[(2, 1, 3)] * 5 - b_family[(3, 2, 1)]
    assert expand_in_b(y, family) == {(2, 1, 3): 5, (3, 2, 1): -1}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangularity_in_q_order(n):
    table = QIndexTable(n)
    catalog = table.catalog
    order = basis_order(n, "qindex")
    position = {w: k for k, w in enumerate(order)}
    for ell in range(1, n + 1):
        _, matrix = rmul_matrix(build_t(n, ell), "a", "qindex")
        for j, w in enumerate(order):
            assert matrix[j][j] == m_vector(catalog[table[w]], n)[ell - 1]
            for i in range(j + 1, len(order)):
                assert matrix[i][j] == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_triangularity_in_reverse_q_order(n):
    table = QIndexTable(n)
    catalog = table.catalog
    order = basis_order(n, "qindex-desc")
    for ell in range(1, n + 1):
        _, matrix = rmul_matrix(build_t_prime(n, ell), "b", "qindex-desc")
        for j, w in enumerate(order):
            assert matrix[j][j] == m_vector(catalog[table[w]], n)[ell - 1]
            for i in range(j + 1, len(order)):
                assert matrix[i][j] == 0


def test_rmul_matrix_std_matches_direct_products():
    n = 3
    t1 = build_t(n, 1)
    order, matrix = rmul_matrix(t1, "std", "lex")
    for j, w in enumerate(order):
        col = (AlgebraElement.from_perm(w) * t1).terms
        for i, v in enumerate(order):
            assert matrix[i][j] == col.get(v, 0)


def test_filtration_dimensions_tables():
    assert filtration_dimensions(3) == (0, 1, 3, 6)
    assert filtration_dimensions(4) == (0, 1, 4, 12, 18, 24)
    assert filtration_dimensions(5) == (0, 1, 5, 20, 40, 50, 70, 90, 120)


def test_filtration_dimensions_strictly_increase():
    for n in range(1, 7):
        dims = filtration_dimensions(n)
        assert dims[0] == 0 and dims[-1] == math.factorial(n)
        assert all(a < b for a, b in zip(dims, dims[1:]))


def test_invariant_space_spanning_family():
    # every a_w with non_shadow(I) inside Des w is fixed by s_i for those i
    for n in range(2, 6):
        for mask in range(1 << n):
            members = {i + 1 for i in range(n) if mask >> i & 1}
            fixed = non_shadow(members, n)
            if not fixed:
                continue
            spanning = [w for w in all_permutations(n) if fixed <= descent_set(w)]
            assert spanning
            for w in spanning:
                aw = a_element(w)
                for i in fixed:
                    si = AlgebraElement.from_perm(cycle(n, (i, i + 1)))
                    assert aw * si == aw


def test_basis_order_variants():
    assert basis_order(3, "lex") == tuple(all_permutations(3))
    table = QIndexTable(3)
    asc = basis_order(3, "qindex")
    desc = basis_order(3, "qindex-desc")
    assert [table[w] for w in asc] == sorted(table[w] for w in asc)
    assert [table[w] for w in desc] == sorted((table[w] for w in desc), reverse=True)
    assert asc[0] == (3, 2, 1)  # the reversal is the unique Q-index-1 element
    with pytest.raises(ValueError):
        basis_order(3, "sideways")


def test_identity_has_empty_descents_and_late_q_index():
    catalog = enumerate_lacunar(4)
    # the identity's Q-index is the first catalog entry with empty non-shadow
    first_empty = next(
        i for i in range(1, len(catalog) + 1) if not non_shadow(catalog[i], 4)
    )
    assert q_index(identity(4), catalog) == first_empty == 5


def expand_in_b_oracle(y, family):
    """One bilinear form f(a_p, y) per basis element: the reference for the
    incidence-based expand_in_b."""
    out = {}
    for p in family.perms:
        c = bilinear_form(family[p], y)
        if c:
            out[p] = c
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expand_in_b_matches_the_bilinear_form_oracle(n):
    family = build_a_family(n)
    b_family = dual_basis(family)
    for ell in range(1, n + 1):
        tp = build_t_prime(n, ell)
        for q in family.perms:
            y = b_family[q] * tp
            assert expand_in_b(y, family) == expand_in_b_oracle(y, family)


def test_expand_in_a_with_fraction_coefficients_rebuilds_the_element():
    rng = random.Random(21)
    family = build_a_family(4)
    for _ in range(20):
        support = rng.sample(family.perms, 7)
        x = AlgebraElement(
            4, {w: Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for w in support}
        )
        coeffs = expand_in_a(x, family)
        assert linear_combine((c, family[p]) for p, c in coeffs.items()) == x
    assert expand_in_a(AlgebraElement.zero(4), family) == {}


def test_incidence_is_cached_per_family():
    family = build_a_family(3)
    assert family.containing is family.containing
    identity_in = [r for r, p in enumerate(family.perms) if (1, 2, 3) in family[p].terms]
    assert family.containing[0] == identity_in
    # a second family gets its own table, never one left over from another instance
    other = build_a_family(3)
    assert other.containing is not family.containing


@pytest.mark.parametrize(
    "basis, order", [("a", "qindex"), ("a", "lex"), ("b", "lex"), ("std", "lex"), ("std", "qindex")]
)
def test_rmul_matrix_checks_the_cap_it_is_given(basis, order):
    with pytest.raises(ValueError, match="cap 4"):
        rmul_matrix(build_t(5, 1), basis, order, max_n=4)
    labels, _ = rmul_matrix(build_t(4, 1), basis, order, max_n=4)
    assert len(labels) == 24


ORDERS = ("lex", "qindex", "qindex-desc")


def families(n):
    """The three families of degree n by basis name, the b-family built on the a-family."""
    a_family = build_a_family(n)
    return {"std": build_std_family(n), "a": a_family, "b": dual_basis(a_family)}


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_the_cap_is_checked_before_s_n_is_enumerated(basis_name, forbid_enumeration_above):
    forbid_enumeration_above(4)
    for order in ORDERS:
        with pytest.raises(ValueError, match="cap 4"):
            rmul_matrix(build_t(5, 1), basis_name, order, max_n=4)
        with pytest.raises(ValueError, match="cap 4"):
            basis_order(5, order, max_n=4)
    for build in (
        lambda: transition_matrix(build_osc(uniform_distribution(5)), max_n=4),
        lambda: QIndexTable(5, max_n=4),
        lambda: build_std_family(5, max_n=4),
        lambda: build_a_family(5, max_n=4),
        lambda: checks.check_antipode_conjugation(5, max_n=4),
    ):
        with pytest.raises(ValueError, match="cap 4"):
            build()
    # the default cap, one degree above it
    forbid_enumeration_above(8)
    with pytest.raises(ValueError, match="cap 8"):
        rmul_matrix(build_t(9, 1), basis_name, "lex")


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_a_family_of_another_degree_is_refused(basis_name):
    of_degree_3 = families(3)
    x = build_t(4, 1)
    with pytest.raises(ValueError, match="degree mismatch"):
        rmul_columns(x, of_degree_3[basis_name])  # on the call, no column drawn
    if basis_name != "std":
        expand = {"a": expand_in_a, "b": expand_in_b}[basis_name]
        with pytest.raises(ValueError, match="degree mismatch"):
            expand(x, of_degree_3["a"])


def test_rmul_matrix_checks_its_basis_on_the_call(forbid_enumeration_above):
    x = build_t(3, 1)
    forbid_enumeration_above(0)  # refused before any family is built
    with pytest.raises(ValueError, match="unknown basis 'c'"):
        rmul_matrix(x, "c")


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_rmul_columns_draws_lex_columns_one_at_a_time(basis_name, monkeypatch):
    family = families(4)[basis_name]
    x = build_t(4, 2)
    # the first column, w = identity, is x itself times the identity's basis vector
    first = {"std": x, "a": a_element(identity(4)) * x, "b": family[identity(4)] * x}[basis_name]
    made = []

    def counted(name, real):
        def count(*args):
            made.append(name)
            return real(*args)

        return count

    for name in ("rank_factors", "_perm_terms"):
        monkeypatch.setattr(basis, name, counted(name, getattr(basis, name)))
    if family.expand is not None:
        family.expand = counted("expand", family.expand)
    columns = rmul_columns(x, family)
    assert made == []  # nothing is computed before the first draw
    drawn = []
    for k, (w, column) in enumerate(columns, start=1):
        # the factors of x once, then one column (and one expansion) per draw
        assert made.count("rank_factors") == 1
        assert made.count("_perm_terms") == k
        assert made.count("expand") == (0 if basis_name == "std" else k)
        drawn.append((w, column))
    assert [w for w, _ in drawn] == list(all_permutations(4))
    w, column = drawn[0]
    if basis_name == "std":
        assert column == first.terms
    elif basis_name == "a":
        assert _rebuild(column, a_element, 4) == first
    else:
        assert column == expand_in_b_oracle(first, build_a_family(4))


def _rebuild(column, vector, n):
    """sum of c_v * vector(v) over the column, in group-algebra arithmetic."""
    return linear_combine([(1, AlgebraElement.zero(n)), *((c, vector(v)) for v, c in column.items())])


def _shuffles_to_rebuild(n):
    yield "zero", AlgebraElement.zero(n)
    for ell in range(1, n + 1):
        yield f"t_{ell}", build_t(n, ell)
        yield f"t'_{ell}", build_t_prime(n, ell)
    yield "osc(uniform)", build_osc(uniform_distribution(n))
    yield "osc(point mass)", build_osc((1,) + (0,) * (n - 1))
    yield "pseudo-random", combine(checks.pseudo_random_weights(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("basis_name", ["a", "b"])
def test_every_column_rebuilds_its_product(basis_name, n):
    """Column w of R(x) in the a-basis (b-basis) holds the c_v with
    sum of c_v a_v = a_w x (sum of c_p b_p = b_w x); both sides are built
    with AlgebraElement arithmetic, a_v from its definition and b_p checked
    against it by the bilinear form."""
    family = families(n)[basis_name]
    if basis_name == "a":
        vector = a_element
    else:
        vector = family.__getitem__
        for p in family.perms:
            for q in family.perms:
                assert bilinear_form(a_element(p), family[q]) == (p == q)
    for label, x in _shuffles_to_rebuild(n):
        for w, column in rmul_columns(x, family):
            assert _rebuild(column, vector, n) == vector(w) * x, (label, w)


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_a_factor_with_more_terms_than_gather_tables_is_composed(basis_name, monkeypatch):
    """Right factors above the gather-table budget compose permutations on
    each lookup; the columns still rebuild their products."""
    from cycleshuffles import algebra

    n = 5
    x = AlgebraElement(
        n, {w: Fraction(k % 7 - 3, 1 + k % 4) for k, w in enumerate(all_permutations(n)) if k % 5}
    )
    assert len(x) > algebra._GATHER_TABLES
    family = families(n)[basis_name]
    vector = {"std": AlgebraElement.from_perm, "a": a_element, "b": family.__getitem__}[basis_name]
    monkeypatch.setattr(algebra, "_gather_table", None)  # no n!-sized table may be built
    for w, column in rmul_columns(x, family):
        assert _rebuild(column, vector, n) == vector(w) * x
