"""Eigenvalues and multiplicities of the one-sided cycle shuffles.

Right multiplication by sum of weights[ell] * t_ell has eigenvalue
sum of weights[ell] * m_{I,ell} for each lacunar subset I of [n-1], with
algebraic multiplicity delta_i = #{w : Qind w = i} given in closed form by a
multinomial product.  Both split over the gaps of I, so each row is one
walk over its members (lacunar.walk_gaps, carried down the catalog's
recursion by lacunar.catalog_rows), and the whole spectrum scales with the
Fibonacci catalog, not with n!.  The exact characteristic polynomial of
a dense matrix provides an independent oracle at small n.  The annihilator
check, the minimal polynomial and the diagonalizability certificate read
one root list, the same catalog's eigenvalues; the first two multiply the
identity's dense integer vector over lexicographic ranks of S_n by their
factors in one loop (algebra.shuffle_rank_product).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .algebra import AlgebraElement, divide_terms, shuffle_rank_product, sn_index
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


def _roots(weights: WeightVector) -> tuple[int, tuple[int, ...], list[int]]:
    """d, the common denominator of the weights, the integers d * weight and
    the integers d g_I over the lacunar I in catalog order (catalog_rows)."""
    _, den, numerators = _exact_weights(weights)
    n = len(numerators)
    cells = [[cell and ((), (), cell[1], 1) for cell in gaps] for gaps in gap_table(n, numerators)]
    return den, numerators, [g for _, _, g, _ in catalog_rows(n, cells)]


def _times(vector: list[int], numerators: Sequence[int], roots: Iterable[int]) -> tuple[list[int], int]:
    """The dense integer vector times d x - g for each root g in turn, d x the
    t_ell weighted by numerators, its content divided out after each factor;
    and the product of those contents.  Stops once the vector vanishes."""
    contents = 1
    for g in roots:
        vector = shuffle_rank_product(vector, numerators, -g)
        content = math.gcd(*vector)
        if not content:
            break
        if content > 1:
            vector = [c // content for c in vector]
            contents *= content
    return vector, contents


def annihilator_check(weights: WeightVector, *, max_n: int | None = None) -> tuple[bool, AlgebraElement]:
    """Evaluate the product of (t - g_I) over all lacunar I in the group algebra.

    Returns (True, zero) when the product vanishes exactly; otherwise the
    residual is the witness: the factors d (t - g_I), d the common
    denominator of the weights, act in catalog order on the identity's
    dense integer vector (_times), and the residual is that vector times
    the contents divided out, over d to the number of factors.
    """
    require_within_cap(len(weights), max_n)
    den, numerators, roots = _roots(weights)
    n = len(numerators)
    vector, contents = _times([1] + [0] * (math.factorial(n) - 1), numerators, roots)  # the identity: rank 0
    if not any(vector):
        return True, AlgebraElement.zero(n)
    scale = Fraction(contents, den ** len(roots))
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


def _annihilates(poly: Polynomial, den: int, numerators: Sequence[int]) -> bool:
    """Whether P(x) = 0 for x the combination of the t_ell with the
    integer weights numerators / den, by Horner over the integers on the
    dense vector of the identity: with L a common denominator of the
    p_k d^(deg-k), L d^deg P(x) is the sum of the integers
    L p_k d^(deg-k) times (d x)^k.  L is 1 when the roots are over d."""
    deg = poly.degree
    scaled = [c * den ** (deg - k) for k, c in enumerate(poly.coeffs)]
    lcd = math.lcm(*(c.denominator for c in scaled))
    coeffs = [c.numerator * (lcd // c.denominator) for c in scaled]
    vector = [coeffs[-1]] + [0] * (math.factorial(len(numerators)) - 1)
    for c in reversed(coeffs[:-1]):
        vector = shuffle_rank_product(vector, numerators)
        vector[0] += c
    return not any(vector)


def minimal_polynomial(x: AlgebraElement, max_n: int | None = None) -> Polynomial:
    """Monic minimal polynomial of right multiplication by x, a combination
    of the t_ell, from its eigenvalues.

    Once P(x) = 0, w * P(x) = 0 for every permutation w, so the minimal
    polynomial of x is that of its right-multiplication matrix.  The
    product of (x - g_I) over the lacunar I vanishes (annihilator_check),
    so the minimal polynomial is the product of (t - g)^k_g over the
    distinct g, with 1 <= k_g <= c_g, c_g the number of catalog rows with
    eigenvalue g.  The premise k_g >= 1 is that every g_I is an
    eigenvalue: delta_I >= 1, because each gap of a lacunar I after the
    first is at least 2.  So a root met once has k_g = 1.  The factors
    d (x - g), d the common denominator of the weights, act on the
    identity's dense integer vector (_times).  When the product of one
    factor per distinct g vanishes, every k_g is 1.  Otherwise each
    repeated root's k_g is the least k for which (x - g)^k times the full
    power (x - h)^c_h of every other root vanishes.  The repeated roots
    are split in halves, recursively: the second half's full powers are
    applied once for the whole first half, and then the first half's
    exponents, found by then, once for the second (the least k stays k_g
    while every other exponent is at least its k_h).  A k_g past c_g
    means the annihilator fails and raises RuntimeError.  P(x) = 0 is
    verified after the fact, over the integers (_annihilates).
    """
    require_within_cap(x.n, max_n)
    weights = _shuffle_weights(x)
    if weights is None:
        raise ValueError("minimal_polynomial takes an element of the span of the t_ell")
    den, numerators, roots = _roots(weights)
    counts = Counter(roots)  # d g -> c_g
    exponents = dict.fromkeys(counts, 1)

    def search(vector: list[int], roots: list[int]) -> None:
        # vector: the identity times, for every root but these, its full
        # power or its exponent once found
        if len(roots) > 1:
            half = len(roots) // 2
            low, high = roots[:half], roots[half:]
            search(_times(vector, numerators, (g for g in high for _ in range(counts[g])))[0], low)
            search(_times(vector, numerators, (g for g in low for _ in range(exponents[g])))[0], high)
            return
        (g,) = roots
        for k in range(1, counts[g] + 1):
            vector = _times(vector, numerators, (g,))[0]
            if not any(vector):
                exponents[g] = k
                return
        raise RuntimeError(f"(x - {Fraction(g, den)})^{counts[g]} and the other factors do not annihilate x")

    repeated = [g for g, c in counts.items() if c > 1]
    identity_vector = [1] + [0] * (math.factorial(x.n) - 1)
    vector = _times(identity_vector, numerators, (g for g, c in counts.items() if c == 1))[0]
    if any(_times(vector, numerators, repeated)[0]):
        if not repeated:
            raise RuntimeError("the product of (x - g_I) over the lacunar I does not annihilate x")
        search(vector, repeated)
    poly = Polynomial.from_roots((Fraction(g, den), k) for g, k in exponents.items()).monic()
    if not _annihilates(poly, den, numerators):
        raise RuntimeError(f"{poly} does not annihilate x; the roots were assembled wrongly")
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
    roots = _roots(weights)[2]
    return CERTIFIED_DIAGONALIZABLE if len(set(roots)) == len(roots) else INCONCLUSIVE
