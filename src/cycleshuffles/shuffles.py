"""The somewhere-to-below shuffles and their convex combinations.

build_t(n, ell) is the sum of the cycles that pick up the card at position
ell and drop it weakly lower; build_t_prime is its antipode image (the
below-to-somewhere shuffle).  A position distribution P yields the one-sided
cycle shuffle osc(P) = sum of P(ell)/(n+1-ell) * t_ell, whose transition
matrix on deck orders is row-stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import AlgebraElement, Scalar, linear_combine, require_within_cap
from .basis import rmul_matrix
from .perms import Perm, cycle

WeightVector = Sequence[Scalar]


def build_t(n: int, ell: int) -> AlgebraElement:
    """cyc_ell + cyc_{ell,ell+1} + ... + cyc_{ell,...,n}: exactly n-ell+1 terms.

    >>> build_t(2, 1) == AlgebraElement(2, {(1, 2): 1, (2, 1): 1})
    True
    """
    if not 1 <= ell <= n:
        raise ValueError(f"position {ell} outside [1, {n}]")
    terms: dict[Perm, Scalar] = {}
    for j in range(ell, n + 1):
        terms[cycle(n, range(ell, j + 1))] = 1
    return AlgebraElement(n, terms)


def build_t_prime(n: int, ell: int) -> AlgebraElement:
    """cyc_ell + cyc_{ell+1,ell} + ... + cyc_{n,...,ell}; equals the antipode of t_ell."""
    if not 1 <= ell <= n:
        raise ValueError(f"position {ell} outside [1, {n}]")
    terms: dict[Perm, Scalar] = {}
    for j in range(ell, n + 1):
        terms[cycle(n, range(j, ell - 1, -1))] = 1
    return AlgebraElement(n, terms)


def combine(weights: WeightVector) -> AlgebraElement:
    """The one-sided cycle shuffle sum of weights[ell-1] * t_ell."""
    n = len(weights)
    return linear_combine((c, build_t(n, ell)) for ell, c in enumerate(weights, start=1))


def validate_distribution(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    probs = tuple(Fraction(p) for p in probabilities)
    if any(p < 0 for p in probs):
        raise ValueError(f"negative probability in {probs}")
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, expected 1")
    return probs


def osc_weights(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Weights P(ell)/(n+1-ell) turning a position distribution into t-weights."""
    probs = validate_distribution(probabilities)
    n = len(probs)
    return tuple(p / (n + 1 - ell) for ell, p in enumerate(probs, start=1))


def build_osc(probabilities: Sequence[Scalar]) -> AlgebraElement:
    """The shuffle governed by a position distribution; coefficients sum to 1.

    A point mass at position 1 gives the top-to-random shuffle, the uniform
    distribution gives random-to-below.
    """
    return combine(osc_weights(probabilities))


def uniform_distribution(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def t2r_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the top-to-random shuffle (point mass at position 1)."""
    return osc_weights([1] + [0] * (n - 1))


def r2b_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the random-to-below shuffle (uniform position choice)."""
    return osc_weights(uniform_distribution(n))


def unweighted_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the unweighted shuffle: every somewhere-to-below move equally likely.

    The position distribution is P(i) = 2(n-i+1)/(n(n+1)), which makes all n
    t-weights equal to 2/(n(n+1)).
    """
    return osc_weights([Fraction(2 * (n - i + 1), n * (n + 1)) for i in range(1, n + 1)])


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense n! x n! matrix of exact rationals, rows and columns indexed by
    the lexicographic enumeration of S_n.  Entries are ints (0 included) or
    Fractions, as rmul_matrix gives them."""

    n: int
    perms: tuple[Perm, ...]
    rows: tuple[tuple[Scalar, ...], ...]


def transition_matrix(x: AlgebraElement, max_n: int | None = None) -> TransitionMatrix:
    """Markov transition matrix of the chain driven by x: entry (tau, sigma)
    is the coefficient of tau^{-1} sigma in x (a right random walk).

    Requires nonnegative coefficients summing to 1; rows then sum to 1
    exactly.  The entries are those of rmul_matrix, equal under == to the
    Fractions they stand for.
    """
    require_within_cap(x.n, max_n)
    total = sum(x.terms.values())
    if total != 1:
        raise ValueError(f"coefficients sum to {total}, expected 1")
    if any(c < 0 for c in x.terms.values()):
        raise ValueError("transition matrices need nonnegative coefficients")
    # tau^{-1} sigma = v  <=>  sigma = tau v: row tau is std column tau, the terms of tau * x
    perms, matrix = rmul_matrix(x, "std", "lex", max_n)
    return TransitionMatrix(x.n, perms, tuple(zip(*matrix)))
