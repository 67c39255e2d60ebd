"""Lacunar subsets of [n-1], their catalog order, and the per-gap row
statistics.

A set of integers is lacunar when it contains no two consecutive integers;
there are exactly fibonacci(n+1) lacunar subsets of [n-1].  The catalog
lists them with weakly increasing element sums, which is the order in which
they index the eigenvalue rows and the filtration.  Subsets are exposed as
frozensets and ascending tuples; internally enumeration works on bitmasks
(bit i = element i), so these combinatorial routines scale far beyond the
group-algebra degree cap.

The m vector, the eigenvalue sum and the multiplicity of a row all split
over the gaps between consecutive members, so one table per degree holds
each gap's share and one walk over a row's members gives all three.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

Subset = frozenset[int]
Gap = tuple[tuple[int, ...], int, int]  # (m segment, weighted sum, delta factor)
GapTable = tuple[tuple[Gap | None, ...], ...]


def fibonacci(m: int) -> int:
    """fibonacci(0) = 0, fibonacci(1) = 1, then the usual recurrence.

    >>> [fibonacci(m) for m in range(8)]
    [0, 1, 1, 2, 3, 5, 8, 13]
    """
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def is_lacunar(members: Iterable[int]) -> bool:
    """No two consecutive integers, i.e. the set does not meet itself shifted by 1.

    >>> is_lacunar({1, 4, 6}), is_lacunar({1, 4, 5})
    (True, False)
    """
    s = set(members)
    return all(i + 1 not in s for i in s)


def lacunar_masks(n: int) -> list[int]:
    """All lacunar subsets of [n-1] as bitmasks, in generation order.

    Built by the recursion "subsets avoiding m-1, plus subsets of [m-3]
    with m-1 adjoined", so the list has fibonacci(n+1) entries without any
    filtering pass.
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    prev_prev = [0]  # lacunar subsets of [] (empty ground set)
    prev = [0]  # lacunar subsets of [0], likewise just the empty set
    for m in range(1, n):
        bit = 1 << m
        cur = prev + [mask | bit for mask in prev_prev]
        prev_prev, prev = prev, cur
    return prev


# _BYTE_MEMBERS[k][b]: the set bits of a mask whose byte k reads b
_BYTE_MEMBERS: list[tuple[tuple[int, ...], ...]] = []


def mask_members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending, read a byte at a time.

    >>> mask_members(0b1010_0000_0110)
    (1, 2, 9, 11)
    """
    while len(_BYTE_MEMBERS) * 8 < mask.bit_length():
        base = 8 * len(_BYTE_MEMBERS)
        table = tuple(tuple(base + i for i in range(8) if b >> i & 1) for b in range(256))
        _BYTE_MEMBERS.append(table)
    out: tuple[int, ...] = ()
    for table in _BYTE_MEMBERS:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out


def set_to_mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


class LacunarCatalog:
    """The lacunar subsets of [n-1] in the canonical order.

    Sets are sorted by element sum ascending; among equal sums, by bitmask
    value descending, which reproduces the tabulated orderings for small n
    (e.g. {4} before {1,3} at n=5 and n=6).  Any sum-monotone order yields
    the same canonical set at each permutation's Q-index, so the tiebreak
    only pins down labels for golden tests.
    """

    def __init__(self, n: int):
        self.n = n
        masks = lacunar_masks(n)
        rows = sorted(zip(masks, map(mask_members, masks)), key=lambda row: (sum(row[1]), -row[0]))
        self.masks: tuple[int, ...] = tuple(mask for mask, _ in rows)
        self.members: tuple[tuple[int, ...], ...] = tuple(members for _, members in rows)
        self.non_shadow_masks: tuple[int, ...] = tuple(_non_shadow_mask(m, n) for m in self.masks)

    @cached_property
    def sets(self) -> tuple[Subset, ...]:
        return tuple(map(frozenset, self.members))

    def __len__(self) -> int:
        return len(self.members)

    def row(self, i: int) -> tuple[int, ...]:
        """The ascending members of the i-th catalog entry, 1-indexed."""
        if not 1 <= i <= len(self.members):
            raise IndexError(f"catalog index {i} outside [1, {len(self.members)}]")
        return self.members[i - 1]

    def __getitem__(self, i: int) -> Subset:
        """The i-th catalog entry, 1-indexed."""
        return frozenset(self.row(i))


@lru_cache(maxsize=None)
def enumerate_lacunar(n: int) -> LacunarCatalog:
    """The catalog for degree n; built once, then shared read-only.

    >>> [sorted(s) for s in enumerate_lacunar(4).sets]
    [[], [1], [2], [3], [1, 3]]
    """
    return LacunarCatalog(n)


@lru_cache(maxsize=64)
def gap_table(n: int, numerators: tuple[int, ...] = ()) -> GapTable:
    """table[a][b] for 0 <= a < b <= n + 1 (None for b <= a): the share of
    the gap (a, b] of the enclosure {0} | I | {n+1} in each row statistic
    of I.

    - The m segment: b - ell for a < ell <= min(b, n), counting down to 0
      (to 1 when b = n + 1).
    - The weighted sum of numerators[ell-1] * (b - ell) over that segment;
      missing numerators weigh 0.
    - The delta factor.  The fenceposts {1} | I | {n+1} have the same gaps
      except the first, which starts at 1; a gap of j = b - f after the
      fencepost f = max(a, 1) contributes binomial(n + 1 - f, j), times
      j - 1 unless it is the first.  The binomials multiply up to the
      multinomial n! / prod j!.
    """
    table = []
    for a in range(n + 1):
        f = max(a, 1)
        gaps: list[Gap | None] = [None] * (a + 1)
        for b in range(a + 1, n + 2):
            segment = tuple(range(b - a - 1, b - min(b, n) - 1, -1))
            weighted = sum(map(mul, numerators[a:], segment))
            gaps.append((segment, weighted, math.comb(n + 1 - f, b - f) * (b - f - 1 if a else 1)))
        table.append(tuple(gaps))
    return tuple(table)


def walk_gaps(members: Sequence[int], table: GapTable) -> Gap:
    """(m, sum, delta) of the set with these distinct ascending members in
    [1, n], from the gap_table of degree n: the m segments joined, the
    weighted sums added and the delta factors multiplied over the gaps."""
    m: tuple[int, ...] = ()
    total, count, a = 0, 1, 0
    for b in members:
        segment, weighted, factor = table[a][b]
        m += segment
        total += weighted
        count *= factor
        a = b
    segment, weighted, factor = table[a][-1]  # the last gap ends at n + 1
    return m + segment, total + weighted, count * factor


def m_vector(members: Iterable[int], n: int) -> tuple[int, ...]:
    """(m_1, ..., m_n): the distance from each ell up to the next element of
    the enclosure {0} | I | {n+1}, zero exactly when ell lies in I.  Members
    outside [1, n] are ignored.

    >>> m_vector({2, 3}, 5)
    (1, 0, 0, 2, 1)
    """
    return walk_gaps(sorted({i for i in members if 1 <= i <= n}), gap_table(n))[0]


def _non_shadow_mask(mask: int, n: int) -> int:
    """Bits i in [1, n-1] with neither bit i nor bit i+1 set in the mask."""
    return ((1 << n) - 2) & ~(mask | mask >> 1)


def non_shadow(members: Iterable[int], n: int) -> Subset:
    """The i in [n-1] with neither i nor i+1 in the set.

    >>> sorted(non_shadow({2, 3}, 5))
    [4]
    >>> sorted(non_shadow({1}, 4))
    [2, 3]
    """
    mask = set_to_mask(i for i in members if 1 <= i <= n)
    return frozenset(mask_members(_non_shadow_mask(mask, n)))


def locate_interval(members: Iterable[int], n: int) -> Subset:
    """The unique lacunar I with non_shadow(I) <= J <= complement of I.

    Scans the whole catalog; existence and uniqueness hold for every J, so
    an empty scan or a second match means a broken catalog.
    """
    s = set(members)
    if any(not 1 <= i <= n - 1 for i in s):
        raise ValueError(f"{s} is not a subset of [{n - 1}]")
    j_mask = set_to_mask(s)
    catalog = enumerate_lacunar(n)
    full = (1 << n) - 2  # bits 1..n-1
    found = None
    for q_mask, np_mask in zip(catalog.masks, catalog.non_shadow_masks):
        if np_mask & j_mask == np_mask and j_mask & (full & ~q_mask) == j_mask:
            if found is not None:
                raise RuntimeError(f"Boolean interval partition violated: {s} matched twice")
            found = q_mask
    if found is None:
        raise RuntimeError(f"no lacunar interval located for {s}; catalog broken")
    return frozenset(mask_members(found))


def format_subset(members: Iterable[int]) -> str:
    """Text form used by the CLI: "{2,3}" or "{}".

    >>> format_subset({3, 2})
    '{2,3}'
    """
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"
