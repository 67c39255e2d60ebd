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
    dual_basis,
    expand_in_a,
    expand_in_b,
    filtration_dimensions,
    q_index,
    rmul_columns,
    rmul_matrix,
)
from cycleshuffles.lacunar import enumerate_lacunar, m_vector, non_shadow
from cycleshuffles.perms import all_permutations, cycle, descent_set, identity
from cycleshuffles.shuffles import build_osc, build_t, build_t_prime, transition_matrix, uniform_distribution


def element(n, *words):
    return AlgebraElement(n, {w: 1 for w in words})


def test_a_element_table_n3():
    assert a_element((1, 2, 3)) == element(3, (1, 2, 3))
    assert a_element((1, 3, 2)) == element(3, (1, 3, 2), (1, 2, 3))
    assert a_element((2, 1, 3)) == element(3, (2, 1, 3), (1, 2, 3))
    assert a_element((2, 3, 1)) == element(3, (2, 3, 1), (2, 1, 3))
    assert a_element((3, 1, 2)) == element(3, (3, 1, 2), (1, 3, 2))
    assert a_element((3, 2, 1)) == element(3, *all_permutations(3))


def test_a_element_matches_young_subgroup_definition():
    from cycleshuffles.perms import compose, young_subgroup

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


def test_q_index_table_counts():
    table = QIndexTable(4)
    assert len(table.index) == 24
    assert table[(4, 3, 1, 2)] == 4


def test_expand_in_a_is_inverse_of_building():
    family = build_a_family(4)
    for w in family.perms:
        assert expand_in_a(family.elements[w], family) == {w: 1}
    # round-trip a generic combination
    combo = family.elements[(2, 1, 4, 3)] * 3 - family.elements[(1, 3, 2, 4)]
    assert expand_in_a(combo, family) == {(2, 1, 4, 3): 3, (1, 3, 2, 4): -1}


def test_printed_expansion_of_a4312_times_t2():
    family = build_a_family(4)
    got = expand_in_a(family.elements[(4, 3, 1, 2)] * build_t(4, 2), family)
    assert got == {
        (4, 3, 1, 2): 1,
        (4, 3, 2, 1): 1,
        (4, 2, 3, 1): -1,
        (3, 2, 4, 1): -1,
        (2, 1, 4, 3): -1,
    }


def test_dual_basis_small_cases():
    fam1 = build_a_family(1)
    assert dual_basis(fam1).elements[(1,)] == element(1, (1,))
    fam2 = build_a_family(2)
    b = dual_basis(fam2)
    assert b.elements[(1, 2)] == AlgebraElement(2, {(1, 2): 1, (2, 1): -1})
    assert b.elements[(2, 1)] == AlgebraElement(2, {(2, 1): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_matrix_identity(n):
    family = build_a_family(n)
    b_family = dual_basis(family)
    for p in family.perms:
        for q in family.perms:
            assert bilinear_form(family.elements[p], b_family.elements[q]) == (p == q)


def test_expand_in_b_recovers_dual_coefficients():
    family = build_a_family(3)
    b_family = dual_basis(family)
    y = b_family.elements[(2, 1, 3)] * 5 - b_family.elements[(3, 2, 1)]
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
    assert filtration_dimensions(enumerate_lacunar(3)) == (0, 1, 3, 6)
    assert filtration_dimensions(enumerate_lacunar(4)) == (0, 1, 4, 12, 18, 24)
    assert filtration_dimensions(enumerate_lacunar(5)) == (0, 1, 5, 20, 40, 50, 70, 90, 120)


def test_filtration_dimensions_strictly_increase():
    for n in range(1, 7):
        dims = filtration_dimensions(enumerate_lacunar(n))
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


def test_family_json_dump():
    from cycleshuffles.algebra import element_from_json
    from cycleshuffles.basis import family_to_json

    family = build_a_family(3)
    dump = family_to_json(family)
    assert len(dump) == 6
    rebuilt = [element_from_json(item) for item in dump]
    assert rebuilt == [family.elements[w] for w in family.perms]


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
        c = bilinear_form(family.elements[p], y)
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
            y = b_family.elements[q] * tp
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
        assert linear_combine((c, family.elements[p]) for p, c in coeffs.items()) == x
    assert expand_in_a(AlgebraElement.zero(4), family) == {}


def test_incidence_is_cached_per_family():
    family = build_a_family(3)
    assert family.containing is family.containing
    identity_in = [p for p in family.perms if (1, 2, 3) in family.elements[p].terms]
    assert family.containing[(1, 2, 3)] == [(p, 1) for p in identity_in]
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


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_the_cap_is_checked_before_s_n_is_enumerated(basis_name, forbid_enumeration_above):
    forbid_enumeration_above(4)
    for order in ORDERS:
        with pytest.raises(ValueError, match="cap 4"):
            rmul_matrix(build_t(5, 1), basis_name, order, max_n=4)
        with pytest.raises(ValueError, match="cap 4"):
            basis_order(5, order, max_n=4)
    with pytest.raises(ValueError, match="cap 4"):
        rmul_columns(build_t(5, 1), basis_name, max_n=4)  # on the call, no column drawn
    for build in (
        lambda: transition_matrix(build_osc(uniform_distribution(5)), max_n=4),
        lambda: QIndexTable(5, max_n=4),
        lambda: build_a_family(5, max_n=4),
        lambda: checks.check_antipode_conjugation(5, max_n=4),
    ):
        with pytest.raises(ValueError, match="cap 4"):
            build()
    # the default cap, one degree above it
    forbid_enumeration_above(8)
    with pytest.raises(ValueError, match="cap 8"):
        rmul_matrix(build_t(9, 1), basis_name, "lex")


def test_rmul_columns_checks_its_basis_on_the_call():
    with pytest.raises(ValueError, match="unknown basis"):
        rmul_columns(build_t(3, 1), "c")


@pytest.mark.parametrize("basis_name", ["std", "a", "b"])
def test_rmul_columns_draws_lex_columns_one_at_a_time(basis_name, monkeypatch):
    family = build_a_family(4)
    b_family = dual_basis(family)
    x = build_t(4, 2)
    drawn = []
    for name in ("rmul_terms", "expand_in_a", "expand_in_b"):
        real = getattr(basis, name)

        def counted(*args, _real=real, _name=name):
            drawn.append(_name)
            return _real(*args)

        monkeypatch.setattr(basis, name, counted)
    columns = rmul_columns(x, basis_name, family, b_family)
    assert drawn == []
    w, column = next(columns)
    assert w == identity(4)
    assert len(drawn) == 1
    expected = {"std": x.terms, "a": expand_in_a(x, family), "b": expand_in_b(b_family[w] * x, family)}
    assert column == expected[basis_name]
    assert [w for w, _ in columns] == list(all_permutations(4))[1:]
