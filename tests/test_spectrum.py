import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cycleshuffles import spectrum
from cycleshuffles.algebra import AlgebraElement
from cycleshuffles.basis import QIndexTable, filtration_dimensions, rmul_matrix
from cycleshuffles.checks import pseudo_random_weights, run_suite
from cycleshuffles.inputs import _exact_weights, osc_weights, r2b_weights, t2r_weights, unweighted_weights
from cycleshuffles.lacunar import LacunarCatalog, enumerate_lacunar, gap_table, m_vector, walk_gaps
from cycleshuffles.perms import all_permutations
from cycleshuffles.polys import Polynomial
from cycleshuffles.shuffles import build_osc, build_t, combine
from cycleshuffles.simulate import exact_expected_tau, fast_bookmark_sim, simulate_sst, stage_probabilities
from cycleshuffles.spectrum import (
    CERTIFIED_DIAGONALIZABLE,
    CHAR_POLY_MAX_DIM,
    INCONCLUSIVE,
    annihilator_check,
    char_poly_oracle,
    delta,
    diagonalizable_certificate,
    eigenvalue_for_set,
    full_spectrum,
    jordan_exponents,
    minimal_polynomial,
)


def ones(n):
    return tuple(Fraction(1) for _ in range(n))


def paper_r2b_weights(n):
    # the unnormalized variant 1/(n+1-ell) used in the collision example
    return tuple(Fraction(1, n + 1 - ell) for ell in range(1, n + 1))


def test_eigenvalue_for_set_examples():
    # top-to-random values together form {0, 1, ..., n-2, n}
    for n in range(2, 9):
        catalog = enumerate_lacunar(n)
        w = (Fraction(1),) + tuple(Fraction(0) for _ in range(n - 1))
        values = {eigenvalue_for_set(w, catalog[i]) for i in range(1, len(catalog) + 1)}
        assert values == set(range(n - 1)) | {n}
    assert eigenvalue_for_set(ones(4), set()) == 10


def test_eigenvalue_collision_at_n12():
    n = 12
    w = paper_r2b_weights(n)
    g1 = eigenvalue_for_set(w, {1, 6, 8, 10})
    g2 = eigenvalue_for_set(w, {6, 8, 11})
    assert g1 == g2 == Fraction(13573, 3960)


def test_eigenvalue_for_set_rejects_non_lacunar():
    with pytest.raises(ValueError):
        eigenvalue_for_set(ones(4), {1, 2})
    with pytest.raises(ValueError):
        eigenvalue_for_set(ones(4), {4})


DELTA_TABLES = {
    3: [1, 2, 3],
    4: [1, 3, 8, 6, 6],
    5: [1, 4, 15, 20, 10, 20, 20, 30],
    6: [1, 5, 24, 45, 40, 45, 15, 80, 45, 120, 120, 90, 90],
}


@pytest.mark.parametrize("n,expected", sorted(DELTA_TABLES.items()))
def test_delta_tables(n, expected):
    catalog = enumerate_lacunar(n)
    assert [delta(i, catalog) for i in range(1, len(catalog) + 1)] == expected


def test_delta_single_set_example():
    catalog = enumerate_lacunar(4)
    assert delta(catalog.sets.index(frozenset({2})) + 1, catalog) == 8


def _m_by_enclosure(members, n):
    """Reference m vector, one row at a time: each gap (low, high] of the
    enclosure {0} | I | {n+1} counts down to 0, and position n + 1 is dropped."""
    m = []
    low = 0
    for high in sorted({i for i in members if 1 <= i <= n}) + [n + 1]:
        m.extend(range(high - low - 1, -1, -1))
        low = high
    return tuple(m[:n])


def _eigenvalue_by_sum(numerators, m):
    """Reference d * g_I: the numerators d * weight dotted with the m vector."""
    return sum(c * mv for c, mv in zip(numerators, m))


def _delta_by_multinomial(members, n):
    """Reference delta: multinomial(n; j_1..j_{p+1}) times the product of
    (j_k - 1) for k >= 2, over the gaps j of the fenceposts {1} | I | {n+1}."""
    fenceposts = [1] + sorted(members) + [n + 1]
    gaps = [b - a for a, b in zip(fenceposts, fenceposts[1:])]
    count = math.factorial(n)
    for g in gaps:
        count //= math.factorial(g)
    for g in gaps[1:]:
        count *= g - 1
    return count


def signed_weights(n, seed):
    rng = random.Random(seed)
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


@pytest.mark.parametrize("n", range(1, 15))
def test_the_gap_walk_matches_the_per_row_oracles(n):
    catalog = enumerate_lacunar(n)
    weight_vectors = (
        r2b_weights(n),
        t2r_weights(n),
        unweighted_weights(n),
        pseudo_random_weights(n),
        signed_weights(n, 201),
    )
    deltas = [_delta_by_multinomial(members, n) for members in catalog.sets]
    assert [delta(i, catalog) for i in range(1, len(catalog) + 1)] == deltas
    for weights in weight_vectors:
        _, den, numerators = _exact_weights(weights)
        table = gap_table(n, numerators)
        report = full_spectrum(weights)
        for members, subset, d, row in zip(catalog.members, catalog.sets, deltas, report.rows):
            m = _m_by_enclosure(subset, n)
            g = _eigenvalue_by_sum(numerators, m)
            assert walk_gaps(members, table) == (m, g, d), (weights, subset)
            assert m_vector(subset, n) == m
            assert (row.members, row.m, row.eigenvalue, row.multiplicity) == (
                members, m, Fraction(g, den), d)


def _reference_spectrum(weights, catalog):
    """Rows (eigenvalue, multiplicity) and the aggregate, summed in Fractions
    and keyed by Fraction, sorted by eigenvalue descending."""
    n = catalog.n
    rows, totals = [], {}
    for members in catalog.sets:
        g = sum(Fraction(c) * m for c, m in zip(weights, _m_by_enclosure(members, n)))
        d = _delta_by_multinomial(members, n)
        rows.append((g, d))
        totals[g] = totals.get(g, 0) + d
    return rows, sorted(totals.items(), key=lambda item: item[0], reverse=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_full_spectrum_matches_a_fraction_keyed_reference(n):
    catalog = enumerate_lacunar(n)
    for weights in (r2b_weights(n), t2r_weights(n), unweighted_weights(n), pseudo_random_weights(n)):
        report = full_spectrum(weights)
        rows, aggregate = _reference_spectrum(weights, catalog)
        assert [(row.eigenvalue, row.multiplicity) for row in report.rows] == rows
        assert list(report.aggregate) == aggregate
        assert all(type(g) is Fraction for g, _ in report.aggregate)


def test_delta_sums_and_divisibility():
    for n in range(1, 21):
        catalog = enumerate_lacunar(n)
        deltas = [delta(i, catalog) for i in range(1, len(catalog) + 1)]
        assert sum(deltas) == math.factorial(n)
        assert all(math.factorial(n) % d == 0 for d in deltas)


def test_delta_matches_counting_oracle():
    # filtration_dimensions counts Q-indices over S_n; its steps are the delta_i
    for n in range(1, 8):
        catalog = enumerate_lacunar(n)
        dims = filtration_dimensions(n)
        steps = [b - a for a, b in zip(dims, dims[1:])]
        assert [delta(i, catalog) for i in range(1, len(catalog) + 1)] == steps


def test_full_spectrum_n4_all_ones():
    report = full_spectrum(ones(4))
    assert dict(report.aggregate) == {
        Fraction(10): 1,
        Fraction(6): 3,
        Fraction(4): 14,
        Fraction(2): 6,
    }


def test_full_spectrum_t2r_fixed_point_multiplicities():
    # eigenvalue i (scaled) has multiplicity = permutations with i fixed points
    report = full_spectrum((Fraction(1), Fraction(0), Fraction(0)))
    assert dict(report.aggregate) == {Fraction(3): 1, Fraction(0): 2, Fraction(1): 3}


def test_full_spectrum_zero_weights():
    report = full_spectrum((Fraction(0),) * 4)
    assert dict(report.aggregate) == {Fraction(0): 24}


SPECTRAL = {
    "full_spectrum": full_spectrum,
    "annihilator_check": annihilator_check,
    "diagonalizable_certificate": diagonalizable_certificate,
    "eigenvalue_for_set": lambda weights: eigenvalue_for_set(weights, ()),
    "jordan_exponents": jordan_exponents,
}


@pytest.mark.parametrize("name", SPECTRAL)
def test_an_empty_weight_vector_is_refused(name):
    # the weights give the degree, so no count can disagree with it; none is degree 0
    with pytest.raises(ValueError, match="^degree must be at least 1, got 0$"):
        SPECTRAL[name](())


DISTRIBUTIONS = {
    "osc_weights": osc_weights,
    "build_osc": build_osc,
    "stage_probabilities": stage_probabilities,
    "exact_expected_tau": exact_expected_tau,
    "simulate_sst": lambda probabilities: simulate_sst(probabilities, 1, 0),
    "fast_bookmark_sim": lambda probabilities: fast_bookmark_sim(probabilities, 1, 0),
}
FLOATS = {
    **{name: (spectral, (Fraction(1, 5), 0.1)) for name, spectral in SPECTRAL.items()},
    **{f"{name}-{p[0]}-{p[1]}": (call, p) for name, call in DISTRIBUTIONS.items() for p in ((0.5, 0.5), (0.1, 0.9))},
}


@pytest.mark.parametrize("name", FLOATS)
def test_a_float_weight_is_refused(name):
    """A float is refused as the group algebra refuses it, not read as its
    binary expansion (0.1 is not 1/10): a weight, or a probability of the
    position distribution, whether or not its binary expansion sums to 1."""
    call, values = FLOATS[name]
    float_value = next(c for c in values if type(c) is float)
    with pytest.raises(TypeError, match=f"^{float_value} is not an exact scalar"):
        call(values)


def test_the_spectral_functions_build_no_catalog(monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"LacunarCatalog({n}) built")

    enumerate_lacunar.cache_clear()  # a cached catalog would hide a call
    monkeypatch.setattr(LacunarCatalog, "__init__", refuse)
    assert all(result.passed for result in run_suite("annihilator", 4))
    weights = pseudo_random_weights(4)
    for spectral in SPECTRAL.values():
        spectral(weights)
    assert eigenvalue_for_set(weights, {1, 3}) == full_spectrum(weights).rows[-1].eigenvalue


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polynomials_evaluate_to_products_of_factors(n):
    # every partial product, so that the comparison is not only 0 == 0
    for weights in (ones(n), r2b_weights(n), pseudo_random_weights(n)):
        t = combine(weights)
        rows = full_spectrum(weights).rows
        product = AlgebraElement.one(n)
        for k, row in enumerate(rows, start=1):
            product = product * (t - row.eigenvalue)
            roots = [(r.eigenvalue, 1) for r in rows[:k]]
            assert Polynomial.from_roots(roots)(t) == product


def test_spectrum_report_json_shape():
    report = full_spectrum(ones(3))
    data = report.to_json()
    assert data["n"] == 3
    assert [row["set"] for row in data["rows"]] == [[], [1], [2]]
    assert all(set(row) == {"set", "m", "eigenvalue", "multiplicity"} for row in data["rows"])


def test_annihilator_minimal_case():
    # (t_1 - 2) t_1 = 0 in the degree-2 algebra
    ok, residual = annihilator_check((Fraction(1), Fraction(0)))
    assert ok and residual.is_zero()
    t1 = build_t(2, 1)
    two = AlgebraElement.one(2).scale(2)
    assert ((t1 - two) * t1).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_annihilator_three_weight_vectors(n):
    for weights in (ones(n), r2b_weights(n), pseudo_random_weights(n)):
        ok, residual = annihilator_check(weights)
        assert ok, f"{len(residual)} terms survive for {weights}"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("drop", [0, -1])
def test_annihilator_residual_is_the_exact_partial_product(n, drop, monkeypatch):
    """With one row left out the product survives, and the residual is the
    product of the remaining factors (t - g_I) as group algebra elements."""
    weights = pseudo_random_weights(n)
    report = full_spectrum(weights)
    rows = list(report.rows)
    del rows[drop]
    real = spectrum.catalog_rows

    def dropped(*args):
        walked = list(real(*args))
        del walked[drop]
        return iter(walked)

    monkeypatch.setattr(spectrum, "catalog_rows", dropped)
    t = combine(report.weights)
    product = AlgebraElement.one(n)
    for row in rows:
        product = product * (t - row.eigenvalue)
    ok, residual = annihilator_check(weights)
    assert not ok and not product.is_zero()
    assert residual == product


def test_minimal_polynomial_examples():
    mp = minimal_polynomial(combine(ones(4)))
    assert mp == Polynomial.from_roots([(10, 1), (6, 1), (4, 2), (2, 1)])
    mp3 = minimal_polynomial(combine((Fraction(6), Fraction(3), Fraction(2))))
    assert mp3 == Polynomial.from_roots([(8, 2), (26, 1)])
    assert minimal_polynomial(AlgebraElement.one(3)) == Polynomial.x_minus(1)


def test_minimal_polynomial_cap(monkeypatch, forbid_enumeration_above):
    # the one full-algebra cap: default 8 unless max_n is given; a stray
    # CYCLESHUFFLES_MAX_N in the environment moves no cap
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", "9")
    x9, x6 = combine(ones(9)), combine(ones(6))
    forbid_enumeration_above(8)
    with pytest.raises(ValueError, match="degree 9 exceeds the full-algebra cap 8"):
        minimal_polynomial(x9)
    with pytest.raises(ValueError, match="degree 6 exceeds the full-algebra cap 5"):
        minimal_polynomial(x6, max_n=5)
    with pytest.raises(ValueError, match="degree 6 exceeds the full-algebra cap 5"):
        jordan_exponents(ones(6), max_n=5)
    minimal_polynomial(x6, max_n=6)


def test_minimal_polynomial_refuses_an_element_off_the_shuffles():
    """t_1 t_2, and seeded Fraction coefficients on a random support, are
    no combination of the t_ell."""
    for n in (4, 5):
        rng = random.Random(40 + n)
        support = rng.sample(list(all_permutations(n)), 5)
        scattered = AlgebraElement(n, {w: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for w in support})
        for x in (build_t(n, 1) * build_t(n, 2), scattered):
            assert spectrum._shuffle_weights(x) is None
            with pytest.raises(ValueError, match="span of the t_ell"):
                minimal_polynomial(x)


def test_minimal_polynomial_rejects_a_relation_that_does_not_annihilate(monkeypatch):
    x = combine(ones(4))
    real = spectrum.Polynomial.from_roots

    def simple(roots):
        # (x - 10)(x - 6)(x - 4)(x - 2) misses the repeated eigenvalue 4 at n = 4
        return real((root, 1) for root, _ in roots)

    monkeypatch.setattr(spectrum.Polynomial, "from_roots", simple)
    with pytest.raises(RuntimeError, match="does not annihilate"):
        minimal_polynomial(x)

    def swapped(roots):
        # the degree is kept: an exponent-3 root gets 2 and an exponent-2 root 3
        roots = list(roots)
        three, two = (next(i for i, (_, k) in enumerate(roots) if k == e) for e in (3, 2))
        roots[three], roots[two] = (roots[three][0], 2), (roots[two][0], 3)
        return real(roots)

    monkeypatch.setattr(spectrum.Polynomial, "from_roots", swapped)
    x = combine(unweighted_weights(7))
    with pytest.raises(RuntimeError, match="does not annihilate"):
        minimal_polynomial(x, max_n=7)


def count_products(monkeypatch):
    """A list that grows by one for each shuffle_rank_product call of spectrum."""
    real = spectrum.shuffle_rank_product
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(spectrum, "shuffle_rank_product", counted)
    return calls


@pytest.mark.parametrize(
    "law, n, degree, products",
    [
        (r2b_weights, 5, 8, 8),
        (r2b_weights, 6, 13, 13),
        (unweighted_weights, 6, 13, 23),
        (unweighted_weights, 7, 21, 50),
    ],
)
def test_minimal_polynomial_applies_each_factor_once(law, n, degree, products, monkeypatch):
    """The r2b roots at n = 5 and 6 are distinct, and the vanishing product
    of their factors, the search's first node, is the proof of P(x) = 0: one
    product per root.  The unweighted roots repeat, and past the first node
    each half takes only the further factors of the other half's roots."""
    calls = count_products(monkeypatch)
    assert minimal_polynomial(combine(law(n)), max_n=n).degree == degree
    assert len(calls) == products


def test_jordan_exponents_of_the_max_gap_law():
    """P = (3/4, 1/4, 0) at n = 3: the root 1/4 has a Jordan block of size
    2, so x is not diagonalizable, where the certificate is inconclusive."""
    weights = osc_weights([Fraction(3, 4), Fraction(1, 4), 0])
    exponents = jordan_exponents(weights)
    assert exponents == {Fraction(1): 1, Fraction(1, 4): 2}
    assert list(exponents) == [1, Fraction(1, 4)]
    assert diagonalizable_certificate(weights) == INCONCLUSIVE
    assert minimal_polynomial(combine(weights)) == Polynomial.from_roots(exponents.items())


def test_jordan_exponents_stop_at_a_vanished_vector(monkeypatch):
    """P = (0, 3/4, 1/4, 0) at n = 4 repeats the root 1, at k_g = 1 of c_g =
    2, and the root 1/4, at 2 of 3.  The half that holds 1 vanishes under the
    further factors of 1/4, so its leaf tries no k = 2: four products."""
    calls = count_products(monkeypatch)
    assert jordan_exponents(osc_weights([0, Fraction(3, 4), Fraction(1, 4), 0])) == {1: 1, Fraction(1, 4): 2}
    assert len(calls) == 4


UNWEIGHTED_EXPONENTS = {
    # n: k_g (c_g, the rows with eigenvalue g) of each distinct root
    7: {
        1: (1, 1), Fraction(3, 4): (1, 1), Fraction(4, 7): (2, 2), Fraction(13, 28): (2, 2),
        Fraction(3, 7): (1, 1), Fraction(11, 28): (2, 2), Fraction(9, 28): (2, 2), Fraction(2, 7): (3, 3),
        Fraction(1, 4): (3, 3), Fraction(5, 28): (3, 3), Fraction(1, 7): (1, 1),
    },
    8: {
        1: (1, 1), Fraction(7, 9): (1, 1), Fraction(11, 18): (2, 2), Fraction(1, 2): (2, 2),
        Fraction(4, 9): (2, 4), Fraction(13, 36): (2, 2), Fraction(1, 3): (3, 4), Fraction(5, 18): (4, 6),
        Fraction(1, 4): (1, 1), Fraction(2, 9): (3, 3), Fraction(7, 36): (3, 3), Fraction(1, 6): (4, 4),
        Fraction(1, 9): (1, 1),
    },
}


@pytest.mark.parametrize("n, products", [(7, 50), (8, 89)])
def test_jordan_exponents_of_the_unweighted_shuffle(n, products, monkeypatch):
    """At n = 7 every one of the 21 catalog rows is a factor of the minimal
    polynomial, each k_g = c_g; at n = 8 five of the 34 are not (4/9, 1/3
    and 5/18 stop below their c_g), and the search over its 9 repeated
    roots goes four halvings deep."""
    calls = count_products(monkeypatch)
    exponents = jordan_exponents(unweighted_weights(n), max_n=n)
    assert len(calls) == products
    report = full_spectrum(unweighted_weights(n))
    rows = Counter(row.eigenvalue for row in report.rows)
    assert {g: (k, rows[g]) for g, k in exponents.items()} == UNWEIGHTED_EXPONENTS[n]
    assert list(exponents) == [g for g, _ in report.aggregate]


@pytest.mark.parametrize("n", range(1, 8))
def test_jordan_exponents_of_random_to_below_are_one(n):
    exponents = jordan_exponents(r2b_weights(n), max_n=n)
    assert all(type(g) is Fraction for g in exponents)
    assert list(exponents) == [g for g, _ in full_spectrum(r2b_weights(n)).aggregate]
    assert set(exponents.values()) == {1}


@pytest.mark.parametrize("n", [4, 5])
def test_minimal_polynomial_refuses_a_catalog_with_a_row_dropped(n, monkeypatch):
    """The unweighted minimal polynomial at n = 4, 5 has one factor per
    catalog row; with any row left out some k_g passes c_g."""
    x = combine(unweighted_weights(n))
    assert minimal_polynomial(x).degree == len(enumerate_lacunar(n))
    real = spectrum.catalog_rows
    for drop in range(len(enumerate_lacunar(n))):

        def dropped(*args):
            walked = list(real(*args))
            del walked[drop]
            return iter(walked)

        monkeypatch.setattr(spectrum, "catalog_rows", dropped)
        with pytest.raises(RuntimeError, match="annihilate"):
            minimal_polynomial(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_combinations_of_the_shuffles_take_the_recursion(n):
    """The weights read off combine(weights), a shift by 1 included, are the
    weights, and the minimal polynomial of x and of x + 1 is the Fraction
    Krylov oracle's."""
    weights = list(pseudo_random_weights(n))
    weights[0] = 0
    x = combine(weights)
    assert spectrum._shuffle_weights(x) == weights
    shifted = list(weights)
    shifted[-1] += 1  # t_n = 1
    assert spectrum._shuffle_weights(x + 1) == shifted
    assert minimal_polynomial(x) == fraction_krylov(x)
    assert minimal_polynomial(x + 1) == fraction_krylov(x + 1)


def fraction_krylov(x):
    """The minimal polynomial by Gauss-Jordan elimination on the Krylov
    sequence of x as Perm-keyed Fraction vectors, each new pivot
    normalized to 1: an oracle that never consults the eigenvalues."""
    pivots = []  # (pivot perm, reduced vector, combination over powers)
    current = {tuple(range(1, x.n + 1)): 1}
    power = 0
    while True:
        vec = {w: Fraction(c) for w, c in current.items()}
        combo = [Fraction(0)] * (power + 1)
        combo[power] = Fraction(1)
        for pivot, pvec, pcombo in pivots:
            c = vec.get(pivot)
            if not c:
                continue
            for w, pv in pvec.items():
                s = vec.get(w, Fraction(0)) - c * pv
                if s:
                    vec[w] = s
                else:
                    vec.pop(w, None)
            for k, pc in enumerate(pcombo):
                combo[k] -= c * pc
        if not vec:
            return Polynomial(combo).monic()
        pivot = next(iter(vec))
        lead = vec[pivot]
        vec = {w: c / lead for w, c in vec.items()}
        combo = [c / lead for c in combo]
        pivots.append((pivot, vec, combo))
        current = (AlgebraElement(x.n, current) * x).terms
        power += 1


KRYLOV_CASES = [
    (n, name, weights)
    for n in range(1, 7)
    for name, weights in (
        ("r2b", r2b_weights),
        ("t2r", t2r_weights),
        ("unweighted", unweighted_weights),
        ("signed", pseudo_random_weights),
    )
] + [(7, "t2r", t2r_weights)]


@pytest.mark.parametrize(
    "n, name, weights", KRYLOV_CASES, ids=[f"{name}-{n}" for n, name, _ in KRYLOV_CASES]
)
def test_minimal_polynomial_matches_the_fraction_krylov_oracle(n, name, weights):
    x = combine(weights(n))
    expected = fraction_krylov(x)
    got = minimal_polynomial(x, max_n=n)
    assert got == expected
    assert [str(c) for c in got.coeffs] == [str(c) for c in expected.coeffs]
    assert all(type(c) is Fraction for c in got.coeffs)


def test_minimal_polynomial_of_zero_and_one():
    for n in (1, 3):
        assert minimal_polynomial(AlgebraElement.zero(n)) == Polynomial((0, 1))
        assert minimal_polynomial(AlgebraElement.one(n)) == Polynomial.x_minus(1)


def test_minimal_polynomial_divides_annihilator():
    # one factor per lacunar set: equal eigenvalues repeat, and the minimal
    # polynomial may genuinely need the repeat (n=4 all-ones has (x-4)^2)
    for n in range(2, 5):
        catalog = enumerate_lacunar(n)
        for weights in (ones(n), r2b_weights(n), pseudo_random_weights(n)):
            x = combine(weights)
            mp = minimal_polynomial(x)
            assert mp(x).is_zero()
            annihilator = Polynomial.from_roots(
                [
                    (eigenvalue_for_set(weights, catalog[i]), 1)
                    for i in range(1, len(catalog) + 1)
                ]
            )
            assert mp.divides(annihilator)
            # each distinct eigenvalue contributes at least a simple root
            for g in {root for root, _ in annihilator_roots(weights, catalog)}:
                assert mp(g) == 0


def annihilator_roots(weights, catalog):
    return [
        (eigenvalue_for_set(weights, catalog[i]), 1)
        for i in range(1, len(catalog) + 1)
    ]


def test_char_poly_oracle_identity_matrix():
    for size in (1, 3, 5):
        eye = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        assert char_poly_oracle(eye) == Polynomial.from_roots([(1, size)])


def test_char_poly_oracle_requires_square_within_cap():
    with pytest.raises(ValueError):
        char_poly_oracle([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        char_poly_oracle([[0] * 121] * 121)


def test_char_poly_oracle_t1_n3():
    _, matrix = rmul_matrix(build_t(3, 1), "std", "lex")
    assert char_poly_oracle(matrix) == Polynomial.from_roots([(0, 2), (1, 3), (3, 1)])


def test_char_poly_oracle_dense_random_matrix_against_known_factors():
    # companion-style matrix with known characteristic polynomial
    poly = Polynomial.from_roots([(Fraction(1, 2), 1), (2, 2), (-3, 1)])
    coeffs = [Fraction(c) for c in poly.coeffs]
    size = poly.degree
    companion = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, size):
        companion[i][i - 1] = Fraction(1)
    for i in range(size):
        companion[i][size - 1] = -coeffs[i]
    assert char_poly_oracle(companion) == poly


def fraction_char_poly(matrix):
    """det(xI - M) by the Hessenberg reduction and the Hessenberg recurrence,
    both in Fractions, the recurrence on Polynomials: the oracle that the
    fraction-free char_poly_oracle is checked against."""
    size = len(matrix)
    h = [[Fraction(v) for v in row] for row in matrix]
    for k in range(size - 2):
        if not h[k + 1][k]:
            swap = next((i for i in range(k + 2, size) if h[i][k]), None)
            if swap is None:
                continue
            h[k + 1], h[swap] = h[swap], h[k + 1]
            for row in h:
                row[k + 1], row[swap] = row[swap], row[k + 1]
        pivot = h[k + 1][k]
        for i in range(k + 2, size):
            if not h[i][k]:
                continue
            factor = h[i][k] / pivot
            hi, hk1 = h[i], h[k + 1]
            for j in range(k, size):
                hi[j] -= factor * hk1[j]
            for row in h:
                row[k + 1] += factor * row[i]
    # p_k = det(xI - H[:k][:k]) by expansion along the last column
    polys = [Polynomial.one()]
    for k in range(1, size + 1):
        term = Polynomial.x_minus(h[k - 1][k - 1]) * polys[k - 1]
        subdiag = Fraction(1)
        for i in range(k - 1, 0, -1):
            subdiag *= h[i][i - 1]
            coeff = h[i - 1][k - 1] * subdiag
            if coeff:
                term = term - coeff * polys[i - 1]
        polys.append(term)
    return polys[size]


MATRIX_KINDS = ("full", "upper", "lower", "hessenberg", "mixed")


def seeded_matrix(kind, size):
    """A seeded rational matrix: full; upper or lower triangular; upper
    Hessenberg with a zero subdiagonal entry in the middle; or full with
    ints beside Fractions over small, prime and large denominators."""
    rng = random.Random(f"{kind}-{size}")
    dens = (1, 2, 3, 4, 6, 7, 9, 11, 25, 10**9 + 7) if kind == "mixed" else (1, 2, 3)

    def entry(i, j):
        if kind == "upper" and i > j or kind == "lower" and i < j or kind == "hessenberg" and i > j + 1:
            return 0
        if rng.random() < 0.2:
            return 0
        den = rng.choice(dens)
        value = Fraction(rng.randint(-9, 9), den)
        return int(value) if kind == "mixed" and den == 1 else value

    matrix = [[entry(i, j) for j in range(size)] for i in range(size)]
    if kind == "hessenberg" and size >= 3:
        middle = size // 2
        matrix[middle][middle - 1] = 0
        for k in range(1, size):  # the other subdiagonal entries nonzero
            if k != middle and not matrix[k][k - 1]:
                matrix[k][k - 1] = Fraction(k, 2)
    return matrix


@pytest.mark.parametrize("size", range(1, 13))
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_char_poly_oracle_equals_the_fraction_recurrence(kind, size):
    matrix = seeded_matrix(kind, size)
    poly = char_poly_oracle(matrix)
    assert poly == fraction_char_poly(matrix)
    assert poly.degree == size and poly.is_monic()
    if kind in ("upper", "lower"):
        assert poly == Polynomial.from_roots((Fraction(matrix[i][i]), 1) for i in range(size))


def test_char_poly_oracle_with_int_zeros_beside_fractions():
    """The oracle makes Fractions of the nonzero entries only; int zeros
    beside Fractions, one of them a subdiagonal entry that the reduction
    swaps out, give the Fraction recurrence's polynomial, and the same
    coefficients as the matrix with every zero a Fraction."""
    rng = random.Random(61)
    size = 10
    matrix = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.3 else 0 for _ in range(size)]
        for _ in range(size)
    ]
    matrix[1][0], matrix[5][0] = 0, Fraction(3, 2)
    assert sum(v == 0 and type(v) is int for row in matrix for v in row) > size * size // 2
    poly = char_poly_oracle(matrix)
    assert poly == fraction_char_poly(matrix)
    as_fractions = char_poly_oracle([[Fraction(v) for v in row] for row in matrix])
    assert [str(c) for c in as_fractions.coeffs] == [str(c) for c in poly.coeffs]


@pytest.mark.parametrize("seed", [51, 52])
def test_char_poly_oracle_on_the_a_basis_at_n5(seed):
    """The 120 x 120 a-basis matrix in Q-index order, the oracle's cap, for a
    seeded signed weight vector: Pi (x - g)^mult over the aggregate."""
    rng = random.Random(seed)
    weights = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5))
    _, matrix = rmul_matrix(combine(weights), "a", "qindex")
    assert len(matrix) == CHAR_POLY_MAX_DIM == 120
    expected = Polynomial.from_roots(full_spectrum(weights).aggregate)
    assert char_poly_oracle(matrix) == expected


def test_char_poly_oracle_consults_no_lacunar_machinery(monkeypatch):
    from cycleshuffles import lacunar, spectrum

    weights = pseudo_random_weights(4)
    _, matrix = rmul_matrix(combine(weights), "a", "qindex")
    expected = Polynomial.from_roots(full_spectrum(weights).aggregate)

    def forbidden(*_args, **_kwargs):
        pytest.fail("char_poly_oracle consulted the lacunar machinery")

    for module in (lacunar, spectrum):
        for name, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == lacunar.__name__:
                monkeypatch.setattr(module, name, forbidden)
    assert char_poly_oracle(matrix) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiplicities_certified_by_char_poly(n):
    for weights in (ones(n), r2b_weights(n), pseudo_random_weights(n)):
        _, matrix = rmul_matrix(combine(weights), "std", "lex")
        report = full_spectrum(weights)
        expected = Polynomial.from_roots(list(report.aggregate))
        assert char_poly_oracle(matrix) == expected


def test_diagonal_of_triangular_matrix_matches_spectrum():
    for n in range(2, 6):
        weights = pseudo_random_weights(n)
        table = QIndexTable(n)
        catalog = table.catalog
        order, matrix = rmul_matrix(combine(weights), "a", "qindex")
        diagonal = sorted(Fraction(matrix[i][i]) for i in range(len(order)))
        expected = sorted(
            eigenvalue_for_set(weights, catalog[table[w]]) for w in order
        )
        assert diagonal == expected


def test_diagonalizable_certificate_examples():
    for n in range(2, 12):
        assert (
            diagonalizable_certificate(paper_r2b_weights(n))
            == CERTIFIED_DIAGONALIZABLE
        )
        assert (
            diagonalizable_certificate(r2b_weights(n))
            == CERTIFIED_DIAGONALIZABLE
        )
    assert (
        diagonalizable_certificate(paper_r2b_weights(12))
        == INCONCLUSIVE
    )
    for n in range(4, 8):
        t2r = (Fraction(1),) + tuple(Fraction(0) for _ in range(n - 1))
        assert diagonalizable_certificate(t2r) == INCONCLUSIVE


CERTIFICATE_LAWS = {
    "r2b": r2b_weights,
    "paper-r2b": paper_r2b_weights,
    "t2r": t2r_weights,
    "unweighted": unweighted_weights,
    "signed": pseudo_random_weights,
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_LAWS))
def test_diagonalizable_certificate_follows_the_report_rule(name, monkeypatch):
    """The certificate counts distinct roots against rows, as the report's
    aggregate does against its rows, at every n <= 14, and builds no
    report."""
    cases = [CERTIFICATE_LAWS[name](n) for n in range(1, 15)]
    expected = []
    for weights in cases:
        report = full_spectrum(weights)
        expected.append(CERTIFIED_DIAGONALIZABLE if len(report.aggregate) == len(report.rows) else INCONCLUSIVE)

    def no_report(weights):
        raise AssertionError("diagonalizable_certificate built a SpectrumReport")

    monkeypatch.setattr(spectrum, "full_spectrum", no_report)
    assert [diagonalizable_certificate(weights) for weights in cases] == expected


def test_top_to_random_spectrum_via_m_values():
    # m_{I,1} over lacunar I is {0} when 1 is a member, else gap to the next
    for n in range(2, 9):
        catalog = enumerate_lacunar(n)
        values = {m_vector(catalog[i], n)[0] for i in range(1, len(catalog) + 1)}
        assert values == set(range(n - 1)) | {n}
