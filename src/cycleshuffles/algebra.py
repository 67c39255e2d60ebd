"""Sparse elements of the rational group algebra of S_n.

Coefficients are exact: Python ints or fractions.Fraction (arbitrary
precision, always reduced).  Zero coefficients are never stored, so equality
of elements is equality of their term dictionaries and an identity check
reduces to emptiness of a difference.

The product of two elements, rmul_terms, clears the denominators of both
factors once, composes the permutation tuples in a pure integer
multiply-add loop, and divides once per output term; it never indexes S_n.

Code that holds integer vectors over lexicographic ranks of S_n reads u*v
off a gather table rank(u) -> rank(u*v) per right term v instead.  The
rank index and the tables are built on first use, never at import, and at
most _GATHER_TABLES tables are kept.  Only the n - 1 adjacent
transpositions s_k have their gather tables composed from permutation
tuples.  Any other v has a first descent k, and v = (v s_k) s_k, so its
table is that of v s_k read through that of s_k: one C-level gather.
Peeling the first descent walks cyc_{ell..k} down to cyc_{ell..k-1} and
cyc_{k..ell} down to cyc_{k..ell+1}, so the tables of the shuffles'
supports are built from each other.

Such code takes the tables of an element's terms from rank_factors, its
denominator cleared once, and no permutation tuples.  A row of the permutation basis
or of the a-basis, a plain sum of permutations, is a list of ranks, and
rank_product multiplies it by any element, one add per rank and term.  A
dense vector times an integer combination of the shuffles t_ell, plus a
multiple of 1, goes through shuffle_rank_product: the recursion
t_ell = 1 + s_ell t_{ell+1} makes that n - 1 transposition gathers and a
few list passes.  It sits beside rank_product because rank_product takes
any element and unit rows.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .inputs import Scalar, _require_scalar
from .perms import (
    Perm,
    _require_permutation,
    all_permutations,
    format_permutation,
    identity,
    inverse,
    transposition,
)


class AlgebraElement:
    """An element of Q[S_n], stored as a sparse permutation -> coefficient map.

    Instances are immutable in intent: no method mutates ``self``, and the
    term mapping must not be modified by callers.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Perm, Scalar] | None = None):
        self.n = n
        clean: dict[Perm, Scalar] = {}
        if terms:
            for w, c in terms.items():
                if len(w) != n:
                    raise ValueError(f"permutation {w} has degree {len(w)}, expected {n}")
                _require_permutation(w, n)
                _require_scalar(c)
                if c:
                    clean[w] = c
        self._terms = clean

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        return cls(n, {identity(n): 1})

    @classmethod
    def from_perm(cls, w: Perm) -> "AlgebraElement":
        return cls(len(w), {w: 1})

    @property
    def terms(self) -> Mapping[Perm, Scalar]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def coefficient(self, w: Perm) -> Scalar:
        """The coefficient of the permutation w (0 if absent)."""
        if len(w) != self.n:
            raise ValueError(f"degree mismatch: {len(w)} vs {self.n}")
        _require_permutation(w, self.n)
        return self._terms.get(w, 0)

    def __add__(self, other: "AlgebraElement | Scalar") -> "AlgebraElement":
        """self + other, a rational scalar c standing for c * 1."""
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.one(self.n).scale(other)
        elif not isinstance(other, AlgebraElement):
            return NotImplemented
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: "AlgebraElement | Scalar") -> "AlgebraElement":
        if not isinstance(other, (int, Fraction, AlgebraElement)):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "AlgebraElement":
        return linear_combine([(c, self)])

    def __rmul__(self, c: Scalar) -> "AlgebraElement":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: "AlgebraElement | Scalar") -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return _raw(self.n, rmul_terms(self._terms, other._terms))

    def __pow__(self, exponent: int) -> "AlgebraElement":
        """Power by repeated squaring (commutator powers are dense)."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = AlgebraElement.one(self.n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def antipode(self) -> "AlgebraElement":
        """Replace each permutation by its inverse, keeping coefficients.

        An involutive algebra antihomomorphism.
        """
        return _raw(self.n, {inverse(w): c for w, c in self._terms.items()})

    def lex_smallest_term(self) -> Perm | None:
        return min(self._terms) if self._terms else None

    def __repr__(self) -> str:
        if not self._terms:
            return f"AlgebraElement.zero({self.n})"
        parts = [f"{c!s}*[{format_permutation(w)}]" for w, c in sorted(self._terms.items())]
        return " + ".join(parts)


def _raw(n: int, terms: dict[Perm, Scalar]) -> AlgebraElement:
    """Internal constructor for term dicts already pruned and degree-checked."""
    el = AlgebraElement.__new__(AlgebraElement)
    el.n = n
    el._terms = terms
    return el


# Gather tables kept for rank_factors and shuffle_rank_product: enough for the
# supports of every t_ell, t'_ell and osc at n <= 8, at most 64 * 8! references.
_GATHER_TABLES = 64


@functools.cache
def sn_index(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """S_n in lexicographic order and the rank of each permutation in it.

    Built on first use per degree and shared by every caller.
    """
    perms = tuple(all_permutations(n))
    return perms, {w: k for k, w in enumerate(perms)}


@functools.cache
def mirror_ranks(n: int) -> tuple[int, ...]:
    """rank(w) -> rank(w0 w w0) over S_n, w0 the longest permutation: in
    one-line notation position i holds n + 1 - w(n + 1 - i).

    Conjugation by w0 is an automorphism of the group algebra that sends
    s_ell to s_{n-ell} and the descent set D of w to n - D, so it sends a_w
    to a_{w0 w w0}.  An involution, built on first use per degree.

    >>> mirror_ranks(3)  # 132 <-> 213 and 231 <-> 312; 123 and 321 are fixed
    (0, 2, 1, 4, 3, 5)
    """
    perms, rank = sn_index(n)
    return tuple(rank[tuple(n + 1 - v for v in reversed(w))] for w in perms)


def _composer(v: Perm) -> Callable[[Perm], Perm]:
    """u -> u*v as a single C-level call."""
    if len(v) == 1:
        return lambda u: u  # itemgetter with one index returns an int, not a tuple
    return itemgetter(*(k - 1 for k in v))


@functools.lru_cache(maxsize=_GATHER_TABLES)
def _gather_table(n: int, v: Perm) -> tuple[int, ...]:
    """rank(u) -> rank(u*v) over all of S_n.

    Composed from permutation tuples only for an adjacent transposition;
    any other v with first descent k is (v s_k) s_k, so rank(u*v) is the
    table of s_k read at rank(u * v s_k).
    """
    k = next((i for i in range(1, n) if v[i - 1] > v[i]), None)
    if k is None:
        return tuple(range(math.factorial(n)))
    s = transposition(n, k)
    if v == s:
        perms, rank = sn_index(n)
        times_v = _composer(v)
        return tuple(rank[times_v(u)] for u in perms)
    peeled = v[: k - 1] + (v[k], v[k - 1]) + v[k + 1 :]
    return itemgetter(*_gather_table(n, peeled))(_gather_table(n, s))


class _ComposedRanks:
    """rank(u) -> rank(u*v), composed on each lookup instead of tabulated."""

    __slots__ = ("perms", "rank", "times_v")

    def __init__(self, n: int, v: Perm):
        self.perms, self.rank = sn_index(n)
        self.times_v = _composer(v)

    def __getitem__(self, r: int) -> int:
        return self.rank[self.times_v(self.perms[r])]


def integer_terms(terms: Mapping[Perm, Scalar]) -> tuple[int, list[tuple[Perm, int]]]:
    """A common denominator d of the coefficients and the integers d*c."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, [(w, c.numerator * (den // c.denominator)) for w, c in terms.items()]


def divide_terms(terms: Mapping[Perm, int], den: int) -> dict[Perm, Scalar]:
    """The nonzero c/den: ints when den is 1, reduced Fractions otherwise."""
    if den == 1:
        return {w: c for w, c in terms.items() if c}
    return {w: Fraction(c, den) for w, c in terms.items() if c}


RankFactors = list[tuple[Sequence[int], int]]


def rank_factors(terms: Mapping[Perm, Scalar], n: int) -> tuple[int, RankFactors]:
    """A common denominator d of the coefficients of y and, per term v of y,
    the map rank(u) -> rank(u*v) with the integer d*[v]y: right
    multiplication by d*y on lexicographic ranks.  Up to _GATHER_TABLES
    terms the maps are the cached gather tables; beyond, they compose on
    lookup, so no n!-sized table is built per term.
    """
    den, ys = integer_terms(terms)
    if len(ys) <= _GATHER_TABLES:
        return den, [(_gather_table(n, v), b) for v, b in ys]
    return den, [(_ComposedRanks(n, v), b) for v, b in ys]


def rank_product(row: Sequence[int], factors: RankFactors) -> dict[int, int]:
    """The sum of the permutations with the listed ranks times d*y given by
    rank_factors, keyed by rank; cancelled entries stay as zeros."""
    product: dict[int, int] = {}
    get = product.get
    for table, b in factors:
        for u in row:
            k = table[u]
            product[k] = get(k, 0) + b
    return product


def shuffle_rank_product(vector: Sequence[int], weights: Sequence[int], shift: int = 0) -> list[int]:
    """The dense integer vector v over lexicographic ranks times the integer
    element x = sum of weights[ell-1] * t_ell + shift, n = len(weights).

    By t_ell = 1 + s_ell t_{ell+1}: with y_1 = weights[0] v and
    y_{k+1} = y_k s_k + weights[k] v, the product v x is
    y_1 + ... + y_n + shift v.  The table of the involution s_k gives
    (y s_k)[r] = y[table[r]], so each step is one gather and two list passes.

    >>> shuffle_rank_product([1, 0], [1, 1], -1)  # 1 * (t_1 + t_2 - 1) = 1 + s_1
    [1, 1]
    """
    n = len(weights)
    y = [weights[0] * a for a in vector]
    total = y
    for k in range(1, n):
        gathered = itemgetter(*_gather_table(n, transposition(n, k)))(y)
        c = weights[k]
        y = [a + c * b for a, b in zip(gathered, vector)] if c else gathered
        total = list(map(add, total, y))
    if shift:
        total = [a + shift * b for a, b in zip(total, vector)]
    return total


def rmul_terms(x_terms: Mapping[Perm, Scalar], y_terms: Mapping[Perm, Scalar]) -> dict[Perm, Scalar]:
    """Term dict of the product x*y, zero terms pruned: the coefficient of
    w is the sum of x[u]*y[v] over u*v = w, one composition per term pair.
    The coefficients are ints when every coefficient of both factors is
    integral, and reduced Fractions otherwise.

    >>> rmul_terms({(2, 1, 3): 1}, {(1, 3, 2): Fraction(1, 2)})
    {(2, 3, 1): Fraction(1, 2)}
    """
    x_den, xs = integer_terms(x_terms)
    y_den, ys = integer_terms(y_terms)
    right = [(_composer(v), b) for v, b in ys]
    acc: dict[Perm, int] = {}
    for u, a in xs:
        for times_v, b in right:
            w = times_v(u)
            acc[w] = acc.get(w, 0) + a * b
    return divide_terms(acc, x_den * y_den)


def linear_combine(pairs: Iterable[tuple[Scalar, AlgebraElement]]) -> AlgebraElement:
    """Sum of c_k * x_k with zero terms pruned.

    >>> from cycleshuffles.perms import identity
    >>> x = AlgebraElement.from_perm(identity(3))
    >>> linear_combine([(1, x), (-1, x)]).is_zero()
    True
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combine needs at least one pair")
    n = pairs[0][1].n
    terms: dict[Perm, Scalar] = {}
    for c, x in pairs:
        if x.n != n:
            raise ValueError(f"degree mismatch: {n} vs {x.n}")
        _require_scalar(c)
        if not c:
            continue
        items = x.terms.items() if c == 1 else [(w, c * cw) for w, cw in x.terms.items()]
        for w, cw in items:
            s = terms.get(w)
            if s is None:
                terms[w] = cw
            elif s := s + cw:
                terms[w] = s
            else:
                del terms[w]
    return _raw(n, terms)


def bilinear_form(x: AlgebraElement, y: AlgebraElement) -> Scalar:
    """Sum over w of [w]x * [w]y; the permutation basis is orthonormal for it."""
    if x.n != y.n:
        raise ValueError(f"degree mismatch: {x.n} vs {y.n}")
    small, large = (x.terms, y.terms) if len(x) <= len(y) else (y.terms, x.terms)
    total: Scalar = 0
    for w, c in small.items():
        d = large.get(w)
        if d is not None:
            total += c * d
    return total
