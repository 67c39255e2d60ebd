"""Lacunar subsets of [n-1], their catalog order, and the per-gap row
statistics.

A set of integers is lacunar when it contains no two consecutive integers;
there are exactly fibonacci(n+1) lacunar subsets of [n-1].  The catalog
lists them with weakly increasing element sums, which is the order in which
they index the eigenvalue rows and the filtration.  Subsets are exposed as
frozensets and ascending tuples, and as bitmasks (bit i = element i), so
these combinatorial routines scale far beyond the group-algebra degree cap.

The m vector, the eigenvalue sum and the multiplicity of a row all split
over the gaps between consecutive members, so one table per degree holds
each gap's share and one walk over a row's members gives all three.
catalog_rows yields the rows in catalog order without sorting or holding
them, and carries that walk down its recursion; gap_texts holds each gap's
share of a row's printed members, m vector and non-shadow.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul
from typing import Iterable, Iterator, Sequence

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
    filtering pass.  Each step only appends, so the subsets of every
    smaller ground set are a prefix of the one list, which grows in place.
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    masks = [0]  # lacunar subsets of [0], just the empty set
    split = 1  # masks[:split] are the lacunar subsets of the ground set two steps back
    for m in range(1, n):
        bit = 1 << m
        size = len(masks)
        masks.extend([mask | bit for mask in islice(masks, split)])
        split = size
    return masks


def set_to_mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _mask_to_set(mask: int) -> Subset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _largest_sum(m: int) -> int:
    """The largest element sum of a lacunar subset of [m]: m + (m - 2) + ...

    >>> [_largest_sum(m) for m in range(-1, 6)]
    [0, 0, 1, 2, 4, 6, 9]
    """
    k = (m + 1) // 2
    return k * m - k * (k - 1)


# catalog_rows lists the subsets of [m] for m below this once per call and
# reuses them: at most fibonacci(15) - 2 = 608 rows, which spares the deepest,
# most numerous levels of the recursion
_LISTED_BELOW = 12


def catalog_rows(n: int, table) -> Iterator[tuple]:
    """One tuple per lacunar subset I of [n-1], in catalog order, combining
    the cells table[a][b] = (left, right, total, product) over the gaps
    (a, b] of the enclosure {0} | I | {n+1}: left and right concatenated in
    ascending gap order, total summed and product multiplied.

    Within each element sum s the largest member t runs down from
    min(n - 1, s), which is descending mask order, to the least t whose
    rest s - t still fits below t - 1; the rest of the set recurses on
    [t - 2].  The gap closed by each member is folded in on the way down,
    so a row costs one table step per gap, and beyond the listed subsets of
    small ground sets only the current path is held.

    >>> cells = [[((a,) if a else (), (), 1 << a if a else 0, 1)] * 7 for a in range(6)]
    >>> [(members, mask) for members, _, mask, _ in catalog_rows(5, cells)]
    [((), 0), ((1,), 2), ((2,), 4), ((3,), 8), ((4,), 16), ((1, 3), 10), ((1, 4), 18), ((2, 4), 20)]
    """
    sums = _largest_sum(n - 1)
    # lowest[s]: the least t with s - t at most the largest sum below t - 1
    lowest = [1] * (sums + 1)
    for t in range(n - 1, 0, -1):
        for s in range(t, t + _largest_sum(t - 2) + 1):
            lowest[s] = t
    first = table[0]
    listed: list[list[list[tuple]]] = []  # listed[m][s]: below(m, s) from blank values

    def below(m, s, left, right, total, product):
        # the lacunar subsets of [m] with sum s, the next member up being m + 2
        if m < len(listed):
            for cell_left, cell_right, cell_total, cell_product in listed[m][s]:
                yield cell_left + left, cell_right + right, cell_total + total, cell_product * product
            return
        b = m + 2
        if s <= m:  # {s} and the rest empty: close the first gap too
            cell_left, cell_right, cell_total, cell_product = table[s][b]
            first_left, first_right, first_total, first_product = first[s]
            yield (
                first_left + cell_left + left,
                first_right + cell_right + right,
                first_total + cell_total + total,
                first_product * cell_product * product,
            )
            m = s - 1
        for t in range(m, lowest[s] - 1, -1):
            cell_left, cell_right, cell_total, cell_product = table[t][b]
            yield from below(
                t - 2, s - t, cell_left + left, cell_right + right, cell_total + total, cell_product * product
            )

    empty = first[n + 1]
    blank = (empty[0][:0], empty[1][:0], 0, 1)
    for m in range(min(n - 1, _LISTED_BELOW)):
        listed.append([[]] + [list(below(m, s, *blank)) for s in range(1, _largest_sum(m) + 1)])
    yield empty
    for s in range(1, sums + 1):
        yield from below(n - 1, s, *blank)


class LacunarCatalog:
    """The lacunar subsets of [n-1] in the canonical order.

    Sets are ordered by element sum ascending; among equal sums, by bitmask
    value descending, which reproduces the tabulated orderings for small n
    (e.g. {4} before {1,3} at n=5 and n=6).  Any sum-monotone order yields
    the same canonical set at each permutation's Q-index, so the tiebreak
    only pins down labels for golden tests.  The rows come from
    catalog_rows, which yields them in this order.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"degree must be at least 1, got {n}")
        self.n = n
        cells = [[((a,), (), 1 << a, 1)] * (n + 2) for a in range(n + 1)]
        cells[0] = [((), (), 0, 1)] * (n + 2)
        rows = list(catalog_rows(n, cells))
        self.masks: tuple[int, ...] = tuple(mask for _, _, mask, _ in rows)
        self.members: tuple[tuple[int, ...], ...] = tuple(members for members, _, _, _ in rows)
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


GapTexts = tuple[tuple[tuple[str, str, str] | None, ...], ...]


@lru_cache(maxsize=16)
def gap_texts(n: int, opening: str, joiner: str, closing: str) -> GapTexts:
    """table[a][b] for 0 <= a < b <= n + 1 (None for b <= a): the text of
    the gap (a, b] in the printed members, m vector and non-shadow of a
    lacunar subset of [n-1], lists printed as opening + the items joined by
    joiner + closing (an empty list as opening and closing stripped).

    - Members: a opens the gap, unless a = 0.
    - The m segment, as in gap_table.
    - Non-shadow: the i with a < i < b - 1 and i < n, each led by the joiner.

    Every gap after the first opens with a member and every gap of a row
    holds m entries, so the first two texts concatenate over a row's gaps
    into the printed list.  A gap may hold no non-shadow, so those texts
    concatenate into the items each led by the joiner, which the caller
    strips and wraps.
    """
    table = []
    for a, row in enumerate(gap_table(n)):
        gaps: list[tuple[str, str, str] | None] = [None] * (a + 1)
        for b in range(a + 1, n + 2):
            end = closing if b == n + 1 else joiner
            if a:
                members = str(a) + end
            elif b <= n:
                members = opening
            else:  # the empty set
                members = opening.strip() + closing.strip()
            m = ("" if a else opening) + joiner.join(map(str, row[b][0])) + end
            non_shadow = "".join(joiner + str(i) for i in range(a + 1, min(b - 1, n)))
            gaps.append((members, m, non_shadow))
        table.append(tuple(gaps))
    return tuple(table)


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
    return _mask_to_set(_non_shadow_mask(mask, n))


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
