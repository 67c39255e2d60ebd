"""The somewhere-to-below shuffles and their convex combinations.

build_t(n, ell) is the sum of the cycles that pick up the card at position
ell and drop it weakly lower; build_t_prime is its antipode image (the
below-to-somewhere shuffle).  A position distribution P yields the one-sided
cycle shuffle osc(P) = sum of P(ell)/(n+1-ell) * t_ell, whose transition
matrix on deck orders is row-stochastic.  The weights themselves (osc_weights,
t2r_weights, r2b_weights, unweighted_weights) are plain Fractions and live in
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import AlgebraElement, linear_combine
from .basis import rmul_matrix
from .inputs import Scalar, WeightVector, osc_weights, require_within_cap
from .perms import Perm, cycle


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


def build_osc(probabilities: Sequence[Scalar]) -> AlgebraElement:
    """The shuffle governed by a position distribution; coefficients sum to 1.

    A point mass at position 1 gives the top-to-random shuffle, the uniform
    distribution gives random-to-below.
    """
    return combine(osc_weights(probabilities))


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
