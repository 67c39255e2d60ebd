import math
import random
from fractions import Fraction

import pytest

from cycleshuffles.algebra import AlgebraElement
from cycleshuffles.basis import QIndexTable, filtration_dimensions, rmul_matrix
from cycleshuffles.checks import pseudo_random_weights, run_suite
from cycleshuffles.inputs import _exact_weights, r2b_weights, t2r_weights, unweighted_weights
from cycleshuffles.lacunar import LacunarCatalog, enumerate_lacunar, gap_table, m_vector, walk_gaps
from cycleshuffles.polys import Polynomial
from cycleshuffles.shuffles import build_t, combine
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
}


@pytest.mark.parametrize("name", SPECTRAL)
def test_an_empty_weight_vector_is_refused(name):
    # the weights give the degree, so no count can disagree with it; none is degree 0
    with pytest.raises(ValueError, match="^degree must be at least 1, got 0$"):
        SPECTRAL[name](())


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


def test_minimal_polynomial_examples():
    mp = minimal_polynomial(combine(ones(4)))
    assert mp == Polynomial.from_roots([(10, 1), (6, 1), (4, 2), (2, 1)])
    mp3 = minimal_polynomial(combine((Fraction(6), Fraction(3), Fraction(2))))
    assert mp3 == Polynomial.from_roots([(8, 2), (26, 1)])
    assert minimal_polynomial(AlgebraElement.one(3)) == Polynomial.x_minus(1)


def test_minimal_polynomial_cap(monkeypatch, forbid_enumeration_above):
    # the one full-algebra cap: default 8, CYCLESHUFFLES_MAX_N, then max_n
    monkeypatch.delenv("CYCLESHUFFLES_MAX_N", raising=False)
    x9, x6 = combine(ones(9)), combine(ones(6))
    forbid_enumeration_above(8)
    with pytest.raises(ValueError, match="degree 9 exceeds the full-algebra cap 8"):
        minimal_polynomial(x9)
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", "5")
    with pytest.raises(ValueError, match="degree 6 exceeds the full-algebra cap 5"):
        minimal_polynomial(x6)
    minimal_polynomial(x6, max_n=6)  # max_n overrides the environment


def test_minimal_polynomial_rejects_a_relation_that_does_not_annihilate(monkeypatch):
    from cycleshuffles import spectrum

    # (x - 10)(x - 6)(x - 4)(x - 2) misses the repeated eigenvalue 4 at n = 4
    wrong = Polynomial.from_roots([(10, 1), (6, 1), (4, 1), (2, 1)])
    monkeypatch.setattr(spectrum, "_krylov_annihilator", lambda x: wrong)
    with pytest.raises(RuntimeError):
        minimal_polynomial(combine(ones(4)))


def fraction_krylov(x):
    """The Fraction elimination the fraction-free _krylov_annihilator
    replaced: Gauss-Jordan on the Krylov sequence of x as Perm-keyed
    Fraction vectors, each new pivot normalized to 1."""
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
    for n in range(1, 6)
    for name, weights in (
        ("r2b", r2b_weights),
        ("t2r", t2r_weights),
        ("unweighted", unweighted_weights),
        ("signed", pseudo_random_weights),
    )
] + [(6, "r2b", r2b_weights)]


@pytest.mark.parametrize(
    "n, name, weights", KRYLOV_CASES, ids=[f"{name}-{n}" for n, name, _ in KRYLOV_CASES]
)
def test_fraction_free_krylov_matches_the_fraction_elimination(n, name, weights):
    from cycleshuffles import spectrum

    x = combine(weights(n))
    expected = fraction_krylov(x)
    got = spectrum._krylov_annihilator(x)
    assert got == expected
    assert [str(c) for c in got.coeffs] == [str(c) for c in expected.coeffs]
    assert minimal_polynomial(x, max_n=n) == expected


def test_fraction_free_krylov_of_zero_and_one():
    from cycleshuffles import spectrum

    for n in (1, 3):
        assert spectrum._krylov_annihilator(AlgebraElement.zero(n)) == Polynomial((0, 1))
        assert spectrum._krylov_annihilator(AlgebraElement.one(n)) == Polynomial.x_minus(1)


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


def test_top_to_random_spectrum_via_m_values():
    # m_{I,1} over lacunar I is {0} when 1 is a member, else gap to the next
    for n in range(2, 9):
        catalog = enumerate_lacunar(n)
        values = {m_vector(catalog[i], n)[0] for i in range(1, len(catalog) + 1)}
        assert values == set(range(n - 1)) | {n}
