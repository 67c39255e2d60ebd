"""Eigenvalues and multiplicities of the one-sided cycle shuffles.

Right multiplication by sum of weights[ell] * t_ell has eigenvalue
sum of weights[ell] * m_{I,ell} for each lacunar subset I of [n-1], with
algebraic multiplicity delta_i = #{w : Qind w = i} given in closed form by a
multinomial product.  Both split over the gaps of I, so each row is one
walk over its members (lacunar.walk_gaps, carried down the catalog's
recursion by lacunar.catalog_rows), and the whole spectrum scales with the
Fibonacci catalog, not with n!.  Exact dense-matrix routines
(characteristic and minimal polynomials) provide independent oracles at
small n.  The annihilator check, the Krylov sequence of the minimal
polynomial and its P(x) = 0 check hold dense integer vectors over
lexicographic ranks of S_n, and multiply them by a combination of the
t_ell in n - 1 transposition gathers (algebra.shuffle_rank_product).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import (
    AlgebraElement,
    divide_terms,
    integer_terms,
    rank_factors,
    shuffle_rank_product,
    sn_index,
)
from .inputs import Scalar, WeightVector, _exact_weights, require_within_cap
from .lacunar import LacunarCatalog, catalog_rows, gap_table, is_lacunar, walk_gaps
from .perms import cycle, identity
from .polys import Polynomial
from .shuffles import combine

CERTIFIED_DIAGONALIZABLE = "certified_diagonalizable"
INCONCLUSIVE = "inconclusive"
CHAR_POLY_MAX_DIM = 120  # 5! = 120, n = 5: the oracle reduces the matrix in Fractions, O(size^3) operations


def eigenvalue_for_set(weights: WeightVector, members: Iterable[int]) -> Fraction:
    """The eigenvalue of one lacunar subset I of [n-1], n the number of
    weights; eigenvalue rows are indexed by lacunar subsets only."""
    _, den, numerators = _exact_weights(weights)
    n = len(numerators)
    s = set(members)
    if not is_lacunar(s) or any(not 1 <= i <= n - 1 for i in s):
        raise ValueError(f"{s} is not a lacunar subset of [{n - 1}]")
    return Fraction(walk_gaps(sorted(s), gap_table(n, numerators))[1], den)


def delta(i: int, catalog: LacunarCatalog) -> int:
    """Number of permutations with Q-index i, by the multinomial formula.

    With Q_i = {i_1 < ... < i_p}, i_0 = 1 and i_{p+1} = n+1, the gaps
    j_k = i_k - i_{k-1} give delta = multinomial(n; j_1..j_{p+1}) times the
    product of (j_k - 1) for k >= 2, one factor per gap (see gap_table).
    Works far beyond the algebra cap.

    >>> from cycleshuffles.lacunar import enumerate_lacunar
    >>> [delta(i, enumerate_lacunar(4)) for i in range(1, 6)]
    [1, 3, 8, 6, 6]
    """
    return walk_gaps(catalog.row(i), gap_table(catalog.n))[2]


class SpectrumRow(NamedTuple):
    members: tuple[int, ...]  # ascending
    m: tuple[int, ...]
    eigenvalue: Fraction
    multiplicity: int


class SpectrumReport(NamedTuple):
    """The rows and the aggregate of full_spectrum; n is the number of weights."""

    n: int
    weights: tuple[Fraction, ...]
    rows: tuple[SpectrumRow, ...]
    aggregate: tuple[tuple[Fraction, int], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "weights": [str(c) for c in self.weights],
            "rows": [
                {
                    "set": list(row.members),
                    "m": list(row.m),
                    "eigenvalue": str(row.eigenvalue),
                    "multiplicity": str(row.multiplicity),
                }
                for row in self.rows
            ],
            "aggregate": [
                {"eigenvalue": str(g), "multiplicity": str(mult)}
                for g, mult in self.aggregate
            ],
        }


def full_spectrum(weights: WeightVector) -> SpectrumReport:
    """One row per catalog entry plus total multiplicities of equal eigenvalues.

    The weights give the degree n, and the rows come from
    lacunar.catalog_rows in catalog order.  Always sums to n! because every
    permutation has exactly one Q-index.
    """
    weights, den, numerators = _exact_weights(weights)
    n = len(weights)
    cells = [
        [cell and ((a,) if a else (), *cell) for cell in gaps]
        for a, gaps in enumerate(gap_table(n, numerators))
    ]
    rows = []
    # den * g_I -> [g_I, multiplicity]; den > 0 keeps the order
    totals: dict[int, list] = {}
    for members, m, g, multiplicity in catalog_rows(n, cells):
        row = SpectrumRow(members, m, Fraction(g, den), multiplicity)
        rows.append(row)
        totals.setdefault(g, [row.eigenvalue, 0])[1] += multiplicity
    aggregate = tuple((value, mult) for _, (value, mult) in sorted(totals.items(), reverse=True))
    return SpectrumReport(n, weights, tuple(rows), aggregate)


def annihilator_check(weights: WeightVector, *, max_n: int | None = None) -> tuple[bool, AlgebraElement]:
    """Evaluate the product of (t - g_I) over all lacunar I in the group algebra.

    Returns (True, zero) when the product vanishes exactly; otherwise the
    residual element is the witness.  The product is kept as a dense
    integer vector over lexicographic ranks times a rational scale: with d
    the common denominator of the weights, each factor, in catalog order,
    multiplies it by the integer combination d (t - g_I) of the t_ell
    through shuffle_rank_product, d g_I summed over the gaps of I from
    gap_table, and the content of the vector is divided out after each step.
    """
    require_within_cap(len(weights), max_n)
    _, den, numerators = _exact_weights(weights)
    n = len(numerators)
    cells = [[cell and ((), (), cell[1], 1) for cell in gaps] for gaps in gap_table(n, numerators)]
    vector, scale = [1] + [0] * (math.factorial(n) - 1), Fraction(1)  # the identity has lexicographic rank 0
    for _, _, g, _ in catalog_rows(n, cells):
        vector = shuffle_rank_product(vector, numerators, -g)
        if not any(vector):
            return True, AlgebraElement.zero(n)
        content = math.gcd(*vector)
        if content > 1:
            vector = [c // content for c in vector]
        scale *= Fraction(content, den)
    perms = sn_index(n)[0]
    residual = {perms[r]: c * scale.numerator for r, c in enumerate(vector) if c}
    return False, AlgebraElement(n, divide_terms(residual, scale.denominator))


def _shuffle_weights(x: AlgebraElement) -> list[Scalar] | None:
    """The weights of x as a combination of the t_ell, or None when it is
    none: weight ell < n is the coefficient of cyc_{ell..n}, which only
    t_ell holds, and weight n what is left of the coefficient of 1."""
    n = x.n
    weights = [x.terms.get(cycle(n, range(ell, n + 1)), 0) for ell in range(1, n)]
    weights.append(x.terms.get(identity(n), 0) - sum(weights))
    return weights if combine(weights) == x else None


def _right_multiplier(x: AlgebraElement) -> tuple[int, Callable[[list[int]], list[int]]]:
    """A common denominator d of x and v -> v (d x) on dense integer vectors
    over lexicographic ranks: shuffle_rank_product when x is a combination
    of the t_ell, and otherwise (v x)[w] = sum of x_y v[w y^-1], one gather
    through the table of each term y^-1 of S(x)."""
    weights = _shuffle_weights(x)
    if weights is not None:
        den = integer_terms(x.terms)[0]
        numerators = [c.numerator * (den // c.denominator) for c in weights]
        return den, lambda vector: shuffle_rank_product(vector, numerators)
    den, factors = rank_factors(x.antipode().terms, x.n)

    def times(vector: list[int]) -> list[int]:
        total = [0] * len(vector)
        for table, b in factors:
            total = [a + b * c for a, c in zip(total, map(vector.__getitem__, table))]
        return total

    return den, times


def _krylov_annihilator(x: AlgebraElement) -> Polynomial:
    """Monic annihilator of the identity under repeated right multiplication
    by x, via incremental fraction-free elimination on the Krylov sequence.

    With d a common denominator of x, the sequence (d x)^k is kept as
    integer vectors over lexicographic ranks (see _right_multiplier).  Each
    new vector is reduced against the stored pivots by
    vec <- (lead/g) vec - (c/g) pivot_vec, with g = gcd(lead, c), together
    with its combination over the powers, and the content of both is
    divided out after each step.  The first vector that reduces to zero
    gives sum of combo[k] (d x)^k = 0, so the polynomial has coefficients
    combo[k] d^k.
    """
    den, times = _right_multiplier(x)
    current = [1] + [0] * (math.factorial(x.n) - 1)  # the identity has lexicographic rank 0
    pivots: list[tuple[int, list[int], list[int]]] = []  # (rank, vector, combination)
    while True:
        vec, combo = current, [0] * len(pivots) + [1]
        for pivot, pvec, pcombo in pivots:
            c = vec[pivot]
            if not c:
                continue
            g = math.gcd(pvec[pivot], c)
            lead, c = pvec[pivot] // g, c // g
            vec = [lead * v - c * pv for v, pv in zip(vec, pvec)]
            combo = [lead * v for v in combo]
            for k, pc in enumerate(pcombo):
                combo[k] -= c * pc
            content = math.gcd(*vec, *combo)
            if content > 1:
                vec = [v // content for v in vec]
                combo = [v // content for v in combo]
        pivot = next((r for r, v in enumerate(vec) if v), None)
        if pivot is None:
            return Polynomial([c * den**k for k, c in enumerate(combo)]).monic()
        pivots.append((pivot, vec, combo))
        current = times(current)


def _annihilates(poly: Polynomial, x: AlgebraElement) -> bool:
    """Whether P(x) = 0, by Horner over the integers on the dense vector of
    the identity: with d a common denominator of x and L one of the
    coefficients p_k, L d^deg P(x) is the sum of the integers
    L p_k d^(deg-k) times (d x)^k."""
    den, times = _right_multiplier(x)
    lcd = math.lcm(*(c.denominator for c in poly.coeffs))
    deg = poly.degree
    coeffs = [c.numerator * (lcd // c.denominator) * den ** (deg - k) for k, c in enumerate(poly.coeffs)]
    vector = [coeffs[-1]] + [0] * (math.factorial(x.n) - 1)
    for c in reversed(coeffs[:-1]):
        vector = times(vector)
        vector[0] += c
    return not any(vector)


def minimal_polynomial(x: AlgebraElement, max_n: int | None = None) -> Polynomial:
    """Monic minimal polynomial of right multiplication by x.

    Krylov iteration seeded at the identity yields the minimal polynomial of
    x itself, which annihilates the whole right-multiplication matrix since
    w * P(x) = 0 for every permutation w once P(x) = 0.  The evaluation
    P(x) = 0 is verified after the fact, over the integers (_annihilates).
    """
    require_within_cap(x.n, max_n)
    poly = _krylov_annihilator(x)
    if not _annihilates(poly, x):
        raise RuntimeError(f"Krylov relation {poly} does not annihilate x; elimination broken")
    return poly


def char_poly_oracle(matrix: Sequence[Sequence[Scalar]]) -> Polynomial:
    """Exact characteristic polynomial det(xI - M) of a square rational matrix.

    Reduces M to upper Hessenberg form H by exact similarity transformations
    in Fractions, then expands det(xI - H) by the Hessenberg recurrence
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)
    without Fraction arithmetic: each p_k is an integer coefficient list
    over one denominator, its content divided out, and each step's product
    of subdiagonal entries is stopped at its first zero.  Only the nonzero
    entries of M are made Fractions; the zeros stay the int 0.  Serves as
    the independent oracle for the multiplicity formula; it never consults
    the lacunar machinery.

    >>> char_poly_oracle([[2, 0], [0, 2]]) == Polynomial((4, -4, 1))
    True
    """
    size = len(matrix)
    if size > CHAR_POLY_MAX_DIM:
        raise ValueError(f"matrix dimension {size} exceeds the oracle cap {CHAR_POLY_MAX_DIM}")
    h = [[Fraction(v) if v else 0 for v in row] for row in matrix]
    if any(len(row) != size for row in h):
        raise ValueError("characteristic polynomial needs a square matrix")

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

    # p_k = det(xI - H[:k][:k]) = P_k / e_k by expansion along the last column:
    # x p_{k-1} less c p_{i-1} for each pair (c, i) of terms, P_k an integer
    # coefficient list (constant term first) with no factor in common with e_k
    polys = [([1], 1)]
    for k in range(1, size + 1):
        terms = [(h[k - 1][k - 1], k)]
        subdiag = Fraction(1)
        for i in range(k - 1, 0, -1):
            subdiag *= h[i][i - 1]
            if not subdiag:
                break
            terms.append((h[i - 1][k - 1] * subdiag, i))
        terms = [(c, i) for c, i in terms if c]
        last, e = polys[k - 1]
        den = math.lcm(e, *(c.denominator * polys[i - 1][1] for c, i in terms))
        out = [0] + [den // e * a for a in last]
        for c, i in terms:
            coeffs, e_i = polys[i - 1]
            factor = c.numerator * (den // (c.denominator * e_i))
            for j, a in enumerate(coeffs):
                out[j] -= factor * a
        common = math.gcd(den, *out)
        polys.append(([a // common for a in out], den // common))
    coeffs, den = polys[size]
    return Polynomial([Fraction(a, den) for a in coeffs])


def diagonalizable_certificate(weights: WeightVector) -> str:
    """"certified_diagonalizable" when all row eigenvalues are pairwise
    distinct, else "inconclusive" (distinctness is sufficient but not
    necessary, so no negative verdict is ever issued)."""
    report = full_spectrum(weights)
    if len(report.aggregate) == len(report.rows):
        return CERTIFIED_DIAGONALIZABLE
    return INCONCLUSIVE
