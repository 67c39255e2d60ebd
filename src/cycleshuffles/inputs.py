"""The checked inputs of every subcommand, as plain Fractions.

Position distributions and the t-weights they give, the exact weights of a
spectrum and the full-algebra degree cap live here, apart from the group
algebra: this module imports only the standard library and the package
root, so a subcommand that needs no element of Q[S_n] (spectrum,
filtration) checks its input without loading one.  The cap is
DEFAULT_MAX_N, defined at the package root, unless the caller passes max_n
(--max-n on the command line).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from . import DEFAULT_MAX_N

Scalar = Union[int, Fraction]
WeightVector = Sequence[Scalar]


def require_within_cap(n: int, max_n: int | None = None) -> None:
    """Refuse a degree above the full-algebra cap: max_n, else DEFAULT_MAX_N."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        raise ValueError(
            f"degree {n} exceeds the full-algebra cap {cap}; raise it with "
            f"max_n (--max-n) if {n}! terms are intended"
        )


def validate_distribution(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    probs = tuple(Fraction(_require_scalar(p)) for p in probabilities)
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


def _require_scalar(c: object) -> Scalar:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{c!r} is not an exact scalar: expected an int or a Fraction")
    return c


def _exact_weights(weights: WeightVector) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    """The weights as Fractions, a common denominator d of them and the
    integers d * weight.  Their count is the degree, so only an empty
    vector is refused; a float weight is a TypeError, as in the algebra.

    >>> _exact_weights((Fraction(1, 2), Fraction(1, 3)))
    ((Fraction(1, 2), Fraction(1, 3)), 6, (3, 2))
    """
    if not weights:
        raise ValueError("degree must be at least 1, got 0")
    exact = tuple(Fraction(_require_scalar(c)) for c in weights)
    den = math.lcm(*(c.denominator for c in exact))
    return exact, den, tuple(c.numerator * (den // c.denominator) for c in exact)
