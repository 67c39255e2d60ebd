"""Reference values the benchmark computes on its own, from the paper's
statements, without importing the package under test.

Everything exact is done in ``fractions.Fraction``; the expected strong
stationary time at large n is the one value computed in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def lacunar_subsets(n: int) -> list[frozenset[int]]:
    """Every subset of {1..n-1} without two consecutive integers, found by
    filtering all 2^(n-1) bitmasks (not by the Fibonacci recursion)."""
    out = []
    for mask in range(1 << (n - 1)):
        if mask & (mask >> 1) == 0:
            out.append(frozenset(i + 1 for i in range(n - 1) if mask >> i & 1))
    return out


def m_vector(members: frozenset[int], n: int) -> tuple[int, ...]:
    """m_{I,l}: distance from l up to the next element of I, or to n+1."""
    return tuple(min([i for i in members if i >= ell] + [n + 1]) - ell for ell in range(1, n + 1))


def eigenvalue(weights: Sequence[Fraction], members: frozenset[int], n: int) -> Fraction:
    return sum((w * m for w, m in zip(weights, m_vector(members, n))), Fraction(0))


def multiplicity(members: frozenset[int], n: int) -> int:
    """The paper's count of permutations whose Q-index is I: with fenceposts
    1 = i_0 < i_1 < ... < i_p < i_{p+1} = n+1 and gaps j_k = i_k - i_{k-1},
    n! / (j_1! ... j_{p+1}!) times (j_2 - 1) ... (j_{p+1} - 1)."""
    posts = [1] + sorted(members) + [n + 1]
    gaps = [b - a for a, b in zip(posts, posts[1:])]
    count = math.factorial(n)
    for g in gaps:
        count //= math.factorial(g)
    for g in gaps[1:]:
        count *= g - 1
    return count


def spectrum_multiset(weights: Sequence[Fraction], n: int) -> dict[Fraction, int]:
    """Eigenvalue -> total multiplicity over all lacunar subsets."""
    out: dict[Fraction, int] = {}
    for members in lacunar_subsets(n):
        g = eigenvalue(weights, members, n)
        out[g] = out.get(g, 0) + multiplicity(members, n)
    return out


def trace_targets(weights: Sequence[Fraction], n: int) -> tuple[Fraction, Fraction]:
    """tr R(x) and tr R(x^2) for x = sum of weights[l] t_l: n! times the
    identity coefficient of x and of x^2.  x has coefficient sum(weights) on
    the identity and weights[l] on the transposition (l, l+1) for l < n,
    and no other term of x is the inverse of a term of x."""
    s = sum(weights, Fraction(0))
    total = math.factorial(n)
    return total * s, total * (s * s + sum((w * w for w in weights[:-1]), Fraction(0)))


def r2b_weights(n: int) -> tuple[Fraction, ...]:
    """Random-to-below: position l picked with chance 1/n, then one of the
    n+1-l weakly lower slots."""
    return tuple(Fraction(1, n * (n + 1 - ell)) for ell in range(1, n + 1))


def unweighted_weights(n: int) -> tuple[Fraction, ...]:
    """Every one of the n(n+1)/2 somewhere-to-below moves equally likely."""
    return tuple(Fraction(2, n * (n + 1)) for _ in range(n))


def osc_weights(dist: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(dist)
    return tuple(p / (n + 1 - ell) for ell, p in enumerate(dist, start=1))


def poly_from_roots(roots: dict[Fraction, int]) -> list[Fraction]:
    """Coefficients, constant term first, of the product of (x - g)^mult."""
    coeffs = [Fraction(1)]
    for g, mult in roots.items():
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] += c
                nxt[k] -= g * c
            coeffs = nxt
    return coeffs


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def climb_probabilities(dist: Sequence, exact: bool = True) -> list:
    """p_b for b = 1..n-1: the chance that one step raises the bookmark
    while b cards sit below it, (b+1) * sum_{i <= n-b} P(i) / (n+1-i)."""
    n = len(dist)
    num = Fraction if exact else float
    # prefix[k] = sum_{i <= k} P(i) / (n+1-i)
    prefix = [num(0)]
    for i, p in enumerate(dist, start=1):
        prefix.append(prefix[-1] + num(p) / (n + 1 - i))
    return [(b + 1) * prefix[n - b] for b in range(1, n)]


def expected_tau(dist: Sequence, exact: bool = True):
    """E[tau] = sum over b of 1 / p_b, tau being a sum of independent
    geometric stage times."""
    one = Fraction(1) if exact else 1.0
    return sum((one / p for p in climb_probabilities(dist, exact)), one * 0)
