"""The checked inputs of every subcommand, as plain Fractions.

Position distributions and the t-weights they give, the exact weights of a
spectrum, the full-algebra degree cap and the names of the verify suites
live here, apart from the group algebra: this module imports only the
standard library, so a subcommand that needs no element of Q[S_n] (spectrum,
filtration) checks its input without loading one.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]
WeightVector = Sequence[Scalar]

DEFAULT_MAX_N = 8
MAX_N_ENV_VAR = "CYCLESHUFFLES_MAX_N"

# the verify suites, in the order "all" runs them (checks.SUITES is built from this)
SUITE_NAMES = ("triangularity", "annihilator", "duality", "identities", "boolean-partition")


def algebra_cap(override: int | None = None) -> int:
    """Effective degree cap for full-S_n computations."""
    if override is not None:
        return override
    env = os.environ.get(MAX_N_ENV_VAR)
    if env is None:
        return DEFAULT_MAX_N
    message = f"{MAX_N_ENV_VAR} must be a positive integer, got {env!r}"
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


def require_within_cap(n: int, override: int | None = None) -> None:
    cap = algebra_cap(override)
    if n > cap:
        raise ValueError(
            f"degree {n} exceeds the full-algebra cap {cap}; raise it explicitly "
            f"or via {MAX_N_ENV_VAR} if {n}! = that many terms is intended"
        )


def validate_distribution(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    probs = tuple(Fraction(p) for p in probabilities)
    for position, p in enumerate(probs, start=1):
        if p < 0:
            raise ValueError(f"negative probability {p} at position {position}")
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, expected 1")
    return probs


def osc_weights(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Weights P(ell)/(n+1-ell) turning a position distribution into t-weights.

    >>> [str(c) for c in osc_weights([Fraction(1, 2), Fraction(1, 2)])]
    ['1/4', '1/2']
    """
    probs = validate_distribution(probabilities)
    n = len(probs)
    return tuple(p / (n + 1 - ell) for ell, p in enumerate(probs, start=1))


def uniform_distribution(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def t2r_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the top-to-random shuffle (point mass at position 1)."""
    return osc_weights([1] + [0] * (n - 1))


def r2b_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the random-to-below shuffle (uniform position choice).

    >>> [str(c) for c in r2b_weights(3)]
    ['1/9', '1/6', '1/3']
    """
    return osc_weights(uniform_distribution(n))


def unweighted_weights(n: int) -> tuple[Fraction, ...]:
    """t-weights of the unweighted shuffle: every somewhere-to-below move equally likely.

    The position distribution is P(i) = 2(n-i+1)/(n(n+1)), which makes all n
    t-weights equal to 2/(n(n+1)).

    >>> set(unweighted_weights(4)) == {Fraction(1, 10)}
    True
    """
    return osc_weights([Fraction(2 * (n - i + 1), n * (n + 1)) for i in range(1, n + 1)])


def _exact_weights(weights: WeightVector) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    """The weights as Fractions, a common denominator d of them and the
    integers d * weight.  Their count is the degree, so only an empty
    vector is refused.

    >>> _exact_weights((Fraction(1, 2), Fraction(1, 3)))
    ((Fraction(1, 2), Fraction(1, 3)), 6, (3, 2))
    """
    if not weights:
        raise ValueError("degree must be at least 1, got 0")
    exact = tuple(Fraction(c) for c in weights)
    den = math.lcm(*(c.denominator for c in exact))
    return exact, den, tuple(c.numerator * (den // c.denominator) for c in exact)
