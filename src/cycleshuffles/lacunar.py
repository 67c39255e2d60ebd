"""Lacunar subsets of [n-1], their catalog order, and the m statistics.

A set of integers is lacunar when it contains no two consecutive integers;
there are exactly fibonacci(n+1) lacunar subsets of [n-1].  The catalog
lists them with weakly increasing element sums, which is the order in which
they index the eigenvalue rows and the filtration.  Subsets are exposed as
frozensets; internally enumeration works on bitmasks (bit i = element i), so
these combinatorial routines scale far beyond the group-algebra degree cap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

Subset = frozenset[int]


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


def _mask_to_set(mask: int) -> Subset:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


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
        sets = {m: _mask_to_set(m) for m in lacunar_masks(n)}
        self.masks: tuple[int, ...] = tuple(sorted(sets, key=lambda m: (sum(sets[m]), -m)))
        self.sets: tuple[Subset, ...] = tuple(sets[m] for m in self.masks)
        self.non_shadow_masks: tuple[int, ...] = tuple(_non_shadow_mask(m, n) for m in self.masks)

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i: int) -> Subset:
        """The i-th catalog entry, 1-indexed."""
        if not 1 <= i <= len(self.sets):
            raise IndexError(f"catalog index {i} outside [1, {len(self.sets)}]")
        return self.sets[i - 1]


@lru_cache(maxsize=None)
def enumerate_lacunar(n: int) -> LacunarCatalog:
    """The catalog for degree n; built once, then shared read-only.

    >>> [sorted(s) for s in enumerate_lacunar(4).sets]
    [[], [1], [2], [3], [1, 3]]
    """
    return LacunarCatalog(n)


def m_vector(members: Iterable[int], n: int) -> tuple[int, ...]:
    """(m_1, ..., m_n): the distance from each ell up to the next element of
    the enclosure {0} | I | {n+1}, zero exactly when ell lies in I.  Members
    outside [1, n] are ignored.

    >>> m_vector({2, 3}, 5)
    (1, 0, 0, 2, 1)
    """
    m: list[int] = []
    low = 0
    for high in sorted({i for i in members if 1 <= i <= n}) + [n + 1]:
        m.extend(range(high - low - 1, -1, -1))  # the gap (low, high] counts down to 0
        low = high
    return tuple(m[:n])  # drop position n + 1


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
    return _mask_to_set(_non_shadow_mask(set_to_mask(i for i in members if 1 <= i <= n), n))


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
    return _mask_to_set(found)


def format_subset(members: Iterable[int]) -> str:
    """Text form used by the CLI: "{2,3}" or "{}".

    >>> format_subset({3, 2})
    '{2,3}'
    """
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"
