"""Exact univariate polynomials over the rationals.

Coefficients are stored densely, constant term first, with no trailing
zeros, so equal polynomials have equal coefficient tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
        trimmed = list(coeffs)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        self.coeffs = tuple(trimmed)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x_minus(cls, root: Coeff) -> "Polynomial":
        return cls((-root, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[tuple[Coeff, int]]) -> "Polynomial":
        """Product of (x - root)^multiplicity over the given pairs."""
        result = cls.one()
        for root, mult in roots:
            for _ in range(mult):
                result = result * cls.x_minus(root)
        return result

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(tuple(Fraction(c) for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | Coeff") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, value):
        """Horner evaluation; works for rationals, for group-algebra
        elements and for anything else with ring arithmetic against the
        coefficients.  The zero polynomial gives the zero of value's ring.

        >>> from cycleshuffles.algebra import AlgebraElement
        >>> Polynomial.zero()(AlgebraElement.one(3)).is_zero()
        True
        >>> Polynomial.zero()(5)
        0
        """
        acc = 0 * value
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic normalization")
        lead = Fraction(self.coeffs[-1])
        return Polynomial(tuple(Fraction(c) / lead for c in self.coeffs))

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact polynomial division with remainder over Q."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        div = [Fraction(c) for c in divisor.coeffs]
        dd = len(div) - 1
        lead = div[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / lead
            quot[i] = factor
            if factor:
                for j, c in enumerate(div):
                    rem[i + j] -= factor * c
        return Polynomial(quot), Polynomial(rem)

    def divides(self, other: "Polynomial") -> bool:
        """Whether self divides other exactly."""
        _, rem = other.divmod(self)
        return rem.is_zero()

    def to_json(self) -> list[str]:
        """Coefficient array of "p/q" strings, constant term first."""
        return [str(Fraction(c)) for c in self.coeffs]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial.zero()
    q, _ = (a * b).divmod(poly_gcd(a, b))
    return q.monic()
