"""Brute-force verification of the commutator and product identities among
the somewhere-to-below shuffles, over exact arithmetic at small n.

Every check multiplies out both sides in the group algebra and tests the
difference for exact vanishing; a failure records the number of surviving
terms and the lexicographically smallest survivor rather than dumping a
factorial-sized element.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .algebra import AlgebraElement
from .inputs import require_within_cap
from .perms import Perm, transposition
from .shuffles import build_t


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y - y * x


class IdentityCheck(NamedTuple):
    name: str
    params: tuple
    passed: bool
    residual_terms: int
    smallest_surviving: Perm | None


class IdentityReport(NamedTuple):
    n: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


def _zero_check(name: str, params: tuple, residual: AlgebraElement) -> IdentityCheck:
    return IdentityCheck(
        name, params, residual.is_zero(), len(residual), residual.lex_smallest_term()
    )


def _nonzero_check(name: str, params: tuple, value: AlgebraElement) -> IdentityCheck:
    """A sharpness witness: passes when the value does NOT vanish."""
    return IdentityCheck(name, params, not value.is_zero(), len(value), value.lex_smallest_term())


def _proven_exponents(n: int, i: int, j: int) -> tuple[int, int]:
    """The two proven exponents j - i + 1 and ceil((n - j) / 2) + 1."""
    return j - i + 1, -((n - j) // -2) + 1


def nilpotency_exponent(n: int, i: int, j: int) -> int:
    """min(j - i + 1, ceil((n - j) / 2) + 1), each sufficient on its own."""
    return min(_proven_exponents(n, i, j))


def _nilpotency_reports(n: int, max_n: int | None) -> tuple[IdentityReport, IdentityReport]:
    """commutator_nilpotency and separate_nilpotency_exponents from one sweep
    that raises each [t_i, t_j] to each exponent it needs once."""
    require_within_cap(n, max_n)
    t = [None] + [build_t(n, ell) for ell in range(1, n + 1)]
    minimal, separate, sharp = [], [], []
    for i, j in combinations(range(1, n + 1), 2):
        com = commutator(t[i], t[j])
        gap, tail = _proven_exponents(n, i, j)
        witness = n == 6 and (i, j) == (1, 3)
        powers = {e: com**e for e in {gap, tail, *((2, 3) if witness else ())}}
        e = nilpotency_exponent(n, i, j)
        minimal.append(_zero_check("commutator_power", (i, j, e), powers[e]))
        separate.append(_zero_check("commutator_power_gap", (i, j, gap), powers[gap]))
        separate.append(_zero_check("commutator_power_tail", (i, j, tail), powers[tail]))
        if witness:
            sharp = [
                _nonzero_check("commutator_power_sharp_nonzero", (1, 3, 2), powers[2]),
                _zero_check("commutator_power_sharp_zero", (1, 3, 3), powers[3]),
            ]
    return IdentityReport(n, tuple(minimal + sharp)), IdentityReport(n, tuple(separate))


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def commutator_nilpotency(n: int, max_n: int | None = None) -> IdentityReport:
    """[t_i, t_j] ** e = 0 for all i < j with the minimal proven exponent e,
    plus the sharpness witness [t_1, t_3] ** 2 != 0 at n = 6."""
    return _nilpotency_reports(n, max_n)[0]


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def separate_nilpotency_exponents(n: int, max_n: int | None = None) -> IdentityReport:
    """Both proven exponents j - i + 1 and ceil((n - j)/2) + 1 individually."""
    return _nilpotency_reports(n, max_n)[1]


def identity_suite(n: int, max_n: int | None = None) -> IdentityReport:
    """The six product identities, each over every admissible index tuple.

    s_j only exists for j <= n - 1, so the (1 + s_j)-identity ranges over
    i < j <= n - 1; its j = n instance is the trivially zero commutator
    [t_i, 1].
    """
    require_within_cap(n, max_n)
    if n < 2:
        return IdentityReport(n, ())
    t = [None] + [build_t(n, ell) for ell in range(1, n + 1)]
    s = [None] + [AlgebraElement.from_perm(transposition(n, i)) for i in range(1, n)]
    checks = []
    for i in range(1, n):
        checks.append(_zero_check("recursion", (i,), t[i] - 1 - s[i] * t[i + 1]))
    for i in range(1, n):
        for j in range(i + 1, n):
            checks.append(
                _zero_check("descent_projector", (i, j), (s[j] + 1) * commutator(t[i], t[j]))
            )
    for i in range(1, n + 1):
        checks.append(
            _zero_check("penultimate_absorbs", (i,), t[n - 1] * commutator(t[i], t[n - 1]))
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cyc = math.prod(s[i:j])
            lhs = commutator(t[i], t[j])
            rhs = commutator(cyc, t[j]) * t[j]
            checks.append(_zero_check("commutator_via_cycle", (i, j), lhs - rhs))
    for i in range(1, n):
        checks.append(
            _zero_check("consecutive_product", (i,), t[i + 1] * t[i] - (t[i] - 1) * t[i])
        )
    for i in range(1, n - 1):
        checks.append(
            _zero_check(
                "skip_product",
                (i,),
                t[i + 2] * (t[i] - 1) - (t[i] - 1) * (t[i + 1] - 1),
            )
        )
    return IdentityReport(n, tuple(checks))
