"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every comparison is exact unless a statistical tolerance
is stated inline.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy.stats import chi2

from cycleshuffles.algebra import AlgebraElement, bilinear_form
from cycleshuffles.basis import (
    build_a_family,
    dual_basis,
    expand_in_a,
)
from cycleshuffles.checks import (
    check_annihilator,
    check_antipode_conjugation,
    check_boolean_partition,
    check_duality,
    check_triangularity,
    pseudo_random_weights,
)
from cycleshuffles.lacunar import enumerate_lacunar, fibonacci, lacunar_masks
from cycleshuffles.basis import rmul_matrix
from cycleshuffles.identities import commutator, commutator_nilpotency, identity_suite
from cycleshuffles.perms import all_permutations
from cycleshuffles.polys import Polynomial
from cycleshuffles.shuffles import (
    build_osc,
    build_t,
    build_t_prime,
    combine,
    r2b_weights,
    transition_matrix,
    uniform_distribution,
)
from cycleshuffles.simulate import (
    bound_check_sweep,
    exact_expected_tau,
    fast_bookmark_sim,
    simulate_sst,
)
from cycleshuffles.spectrum import (
    CERTIFIED_DIAGONALIZABLE,
    INCONCLUSIVE,
    annihilator_check,
    char_poly_oracle,
    delta,
    diagonalizable_certificate,
    eigenvalue_for_set,
    full_spectrum,
    minimal_polynomial,
)

DELTA_TABLES = {
    3: [1, 2, 3],
    4: [1, 3, 8, 6, 6],
    5: [1, 4, 15, 20, 10, 20, 20, 30],
    6: [1, 5, 24, 45, 40, 45, 15, 80, 45, 120, 120, 90, 90],
}

DIM_TABLES = {
    3: [1, 3, 6],
    4: [1, 4, 12, 18, 24],
    5: [1, 5, 20, 40, 50, 70, 90, 120],
    6: [1, 6, 30, 75, 115, 160, 175, 255, 300, 420, 540, 630, 720],
}

_sweep_cache = {}


def bound_sweep():
    if "sweep" not in _sweep_cache:
        _sweep_cache["sweep"] = bound_check_sweep(10_000)
    return _sweep_cache["sweep"]


def report(number, label, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {number}: {label}{suffix}")


def test_criterion_01_delta_and_dimension_tables():
    start = time.monotonic()
    for n, expected in DELTA_TABLES.items():
        catalog = enumerate_lacunar(n)
        deltas = [delta(i, catalog) for i in range(1, len(catalog) + 1)]
        assert deltas == expected
        dims = []
        running = 0
        for d in deltas:
            running += d
            dims.append(running)
        assert dims == DIM_TABLES[n]
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(1, "filtration tables for n = 3..6 match exactly", elapsed)


def test_criterion_02_lacunar_counts_and_delta_arithmetic():
    start = time.monotonic()
    for n in range(1, 31):
        assert len(lacunar_masks(n)) == fibonacci(n + 1)
    for n in range(1, 21):
        catalog = enumerate_lacunar(n)
        deltas = [delta(i, catalog) for i in range(1, len(catalog) + 1)]
        assert sum(deltas) == math.factorial(n)
        assert all(math.factorial(n) % d == 0 for d in deltas)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(2, "lacunar counts = f_{n+1} (n <= 30); sum delta = n!, delta | n! (n <= 20)", elapsed)


def test_criterion_03_triangularity_and_printed_expansion():
    start = time.monotonic()
    for n in range(2, 7):
        results = check_triangularity(n)
        assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    family = build_a_family(4)
    expansion = expand_in_a(family[(4, 3, 1, 2)] * build_t(4, 2), family)
    assert expansion == {
        (4, 3, 1, 2): 1,
        (4, 3, 2, 1): 1,
        (4, 2, 3, 1): -1,
        (3, 2, 4, 1): -1,
        (2, 1, 4, 3): -1,
    }
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(3, "R(t_ell) upper-triangular in Q-order for n <= 6; printed expansion exact", elapsed)


def test_criterion_04_annihilating_products():
    start = time.monotonic()
    for n in range(2, 6):
        catalog = enumerate_lacunar(n)
        for label, weights in (
            ("ones", tuple(Fraction(1) for _ in range(n))),
            ("r2b", r2b_weights(n)),
            ("pseudo-random", pseudo_random_weights(n)),
        ):
            ok, residual = annihilator_check(weights, catalog)
            assert ok, f"{label} weights at n={n}: {len(residual)} terms survive"
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(4, "product of (t - g_I) vanishes exactly for three weight families, n <= 5", elapsed)


def test_criterion_05_minimal_polynomials():
    start = time.monotonic()
    assert minimal_polynomial(combine([1, 1, 1, 1])) == Polynomial.from_roots(
        [(10, 1), (6, 1), (4, 2), (2, 1)]
    )
    assert minimal_polynomial(
        combine([Fraction(6, 1), Fraction(3, 1), Fraction(2, 1)])
    ) == Polynomial.from_roots([(8, 2), (26, 1)])
    elapsed = time.monotonic() - start
    report(5, "minimal polynomials (x-10)(x-6)(x-4)^2(x-2) and (x-8)^2(x-26)", elapsed)


def test_criterion_06_multiplicities_against_char_poly_oracle():
    start = time.monotonic()
    for n in range(2, 5):
        catalog = enumerate_lacunar(n)
        for weights in (
            tuple(Fraction(1) for _ in range(n)),
            r2b_weights(n),
            pseudo_random_weights(n),
        ):
            _, matrix = rmul_matrix(combine(weights), "std", "lex")
            report_ = full_spectrum(weights, catalog)
            assert char_poly_oracle(matrix) == Polynomial.from_roots(list(report_.aggregate))
    _, matrix = rmul_matrix(build_t(3, 1), "std", "lex")
    assert char_poly_oracle(matrix) == Polynomial.from_roots([(0, 2), (1, 3), (3, 1)])
    elapsed = time.monotonic() - start
    report(6, "char-poly oracle confirms multiplicities (n <= 4); t_1 at n=3 = x^2(x-1)^3(x-3)", elapsed)


def test_criterion_07_spectrum_facts_and_collision():
    start = time.monotonic()
    for n in range(2, 9):
        catalog = enumerate_lacunar(n)
        t2r = (Fraction(1),) + tuple(Fraction(0) for _ in range(n - 1))
        values = {
            eigenvalue_for_set(t2r, catalog[i], n) for i in range(1, len(catalog) + 1)
        }
        assert values == set(range(n - 1)) | {n}
    n = 12
    weights = tuple(Fraction(1, n + 1 - ell) for ell in range(1, n + 1))
    assert (
        eigenvalue_for_set(weights, {1, 6, 8, 10}, n)
        == eigenvalue_for_set(weights, {6, 8, 11}, n)
        == Fraction(13573, 3960)
    )
    assert diagonalizable_certificate(weights, enumerate_lacunar(12)) == INCONCLUSIVE
    for m in range(2, 12):
        w = tuple(Fraction(1, m + 1 - ell) for ell in range(1, m + 1))
        assert diagonalizable_certificate(w, enumerate_lacunar(m)) == CERTIFIED_DIAGONALIZABLE
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(7, "Spec(R(t_1)) = {0..n-2, n} for n <= 8; 13573/3960 collision at n=12", elapsed)


def test_criterion_08_transition_matrices():
    import random

    start = time.monotonic()
    t2r = transition_matrix(build_osc([1, 0, 0]))
    assert t2r.rows == tuple(
        tuple(Fraction(v) for v in row)
        for row in [
            ["1/3", "0", "1/3", "1/3", "0", "0"],
            ["0", "1/3", "0", "0", "1/3", "1/3"],
            ["1/3", "1/3", "1/3", "0", "0", "0"],
            ["0", "0", "0", "1/3", "1/3", "1/3"],
            ["1/3", "1/3", "0", "0", "1/3", "0"],
            ["0", "0", "1/3", "1/3", "0", "1/3"],
        ]
    )
    rtb = transition_matrix(build_osc(uniform_distribution(3)))
    assert rtb.rows == tuple(
        tuple(Fraction(v) for v in row)
        for row in [
            ["11/18", "1/6", "1/9", "1/9", "0", "0"],
            ["1/6", "11/18", "0", "0", "1/9", "1/9"],
            ["1/9", "1/9", "11/18", "1/6", "0", "0"],
            ["0", "0", "1/6", "11/18", "1/9", "1/9"],
            ["1/9", "1/9", "0", "0", "11/18", "1/6"],
            ["0", "0", "1/9", "1/9", "1/6", "11/18"],
        ]
    )
    rng = random.Random(20231020)
    for n in range(2, 6):
        raw = [Fraction(rng.randrange(1, 12), rng.randrange(12, 30)) for _ in range(n)]
        total = sum(raw)
        tm = transition_matrix(build_osc([p / total for p in raw]))
        assert all(sum(row) == 1 for row in tm.rows)
    elapsed = time.monotonic() - start
    report(8, "printed T2R_3 and rtb_3 matrices exact; rows sum to 1 for random P, n <= 5", elapsed)


def test_criterion_09_duality_and_dual_triangularity():
    start = time.monotonic()
    for n in range(1, 6):
        family = build_a_family(n)
        b_family = dual_basis(family)
        for p in family.perms:
            ap = family[p]
            for q in family.perms:
                assert bilinear_form(ap, b_family[q]) == (1 if p == q else 0)
    for n in range(2, 6):
        results = [r for r in check_duality(n) if "upper-triangular" in r.name]
        assert len(results) == n
        assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    for n in range(1, 7):
        for ell in range(1, n + 1):
            assert build_t(n, ell).antipode() == build_t_prime(n, ell)
    for n in range(1, 5):
        assert check_antipode_conjugation(n).passed
    elapsed = time.monotonic() - start
    report(9, "Gram(a,b) = I (n <= 5); R(t') triangular in reverse Q-order; antipode and conjugation", elapsed)


def test_criterion_10_identity_suite_with_sharpness():
    start = time.monotonic()
    for n in range(2, 7):
        assert identity_suite(n).all_passed
        assert commutator_nilpotency(n).all_passed
    com = commutator(build_t(6, 1), build_t(6, 3))
    assert not (com**2).is_zero()
    assert (com**3).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(10, "all product identities for 2 <= n <= 6, with the n=6 sharpness witness", elapsed)


def test_criterion_11_boolean_interval_partition():
    start = time.monotonic()
    for n in range(1, 13):
        results = check_boolean_partition(n)
        assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(11, "every subset of [n-1] matches exactly one lacunar interval, n <= 12", elapsed)


def test_criterion_12_strong_stationary_time():
    start = time.monotonic()
    assert exact_expected_tau(uniform_distribution(2)) == 2
    assert exact_expected_tau(uniform_distribution(3)) == Fraction(24, 5)

    upper_violations, _ = bound_sweep()
    assert upper_violations == []

    sim10 = simulate_sst(uniform_distribution(10), trials=200_000, seed=20231020)
    exact10 = float(exact_expected_tau(uniform_distribution(10)))
    assert abs(sim10.mean - exact10) <= 3 * sim10.stderr

    full5 = simulate_sst(uniform_distribution(5), trials=100_000, seed=41)
    fast5 = fast_bookmark_sim(uniform_distribution(5), trials=100_000, seed=41)
    assert abs(full5.mean - fast5.mean) <= 4 * math.hypot(full5.stderr, fast5.stderr)

    trials = 240_000
    sim4 = simulate_sst(uniform_distribution(4), trials=trials, seed=99, record_final=True)
    counts = sim4.final_counts
    assert set(counts) == set(all_permutations(4))
    expected = trials / 24
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.isf(1e-3, 23)
    assert statistic < critical, f"chi-square {statistic:.2f} >= {critical:.2f}"

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(12, "exact tau values, bound sweep to 1e4, simulators within tolerance, uniform at tau", elapsed)


def test_criterion_13_conjectured_lower_bound_status():
    start = time.monotonic()
    _, lower_violations = bound_sweep()
    status = "holds" if not lower_violations else f"fails at n = {lower_violations[:5]}"
    elapsed = time.monotonic() - start
    # conjecture status is informational and never gates the suite
    print(f"INFO criterion 13: conjectured lower bound for 3 <= n <= 10^4: {status}")
    report(13, "conjectured lower bound status reported without gating", elapsed)
