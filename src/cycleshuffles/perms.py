"""Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is stored as the tuple (w(1), w(2), ..., w(n)) of 1-indexed
values; tuples are hashable, so they double as keys of sparse group-algebra
elements.  Composition follows the convention (pq)(i) = p(q(i)), under which
a deck order w turns into w*sigma when the shuffle sigma is applied.

All functions here are pure and all values immutable, so everything in this
module can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def is_permutation(word: Sequence[int]) -> bool:
    """Check that ``word`` lists each of 1..len(word) exactly once.

    >>> is_permutation((2, 1, 3)), is_permutation((1, 1, 2)), is_permutation((0, 1))
    (True, False, False)
    """
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def identity(n: int) -> Perm:
    """The identity permutation of [n].

    >>> identity(3)
    (1, 2, 3)
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Product pq with (pq)(i) = p(q(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] for v in q)


def inverse(p: Perm) -> Perm:
    """Inverse permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycle(n: int, indices: Sequence[int]) -> Perm:
    """The cycle sending indices[0] -> indices[1] -> ... -> indices[-1] -> indices[0].

    All other elements of [n] are fixed.  A single index gives the identity.

    >>> cycle(3, (1, 2, 3))
    (2, 3, 1)
    >>> cycle(3, (2,))
    (1, 2, 3)
    >>> cycle(4, (2, 3, 4))
    (1, 3, 4, 2)
    """
    if not indices:
        raise ValueError("cycle needs at least one index")
    if len(set(indices)) != len(indices):
        raise ValueError(f"cycle indices must be distinct: {indices!r}")
    word = list(range(1, n + 1))
    for i, j in zip(indices, indices[1:]):
        if not 1 <= i <= n:
            raise ValueError(f"cycle index {i} outside [1, {n}]")
        word[i - 1] = j
    last, first = indices[-1], indices[0]
    if not 1 <= last <= n:
        raise ValueError(f"cycle index {last} outside [1, {n}]")
    word[last - 1] = first
    return tuple(word)


def transposition(n: int, i: int) -> Perm:
    """The adjacent transposition swapping i and i+1.

    >>> transposition(4, 2)
    (1, 3, 2, 4)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} outside [1, {n - 1}]")
    return cycle(n, (i, i + 1))


def descent_set(w: Perm) -> frozenset[int]:
    """Positions i with w(i) > w(i+1).

    >>> sorted(descent_set((3, 2, 4, 1)))
    [1, 3]
    >>> descent_set((1, 2, 3)) == frozenset()
    True
    """
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order of one-line words."""
    return itertools.permutations(range(1, n + 1))


def _index_blocks(n: int, indices: Iterable[int]) -> list[range]:
    """Maximal runs of consecutive generator indices, as position blocks.

    A run {a, a+1, ..., b} of adjacent-transposition indices generates the
    full symmetric group on positions a..b+1.
    """
    idx = sorted(set(indices))
    for i in idx:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} outside [1, {n - 1}]")
    blocks = []
    k = 0
    while k < len(idx):
        start = idx[k]
        while k + 1 < len(idx) and idx[k + 1] == idx[k] + 1:
            k += 1
        blocks.append(range(start, idx[k] + 2))
        k += 1
    return blocks


def young_subgroup(n: int, indices: Iterable[int]) -> list[Perm]:
    """All elements of the subgroup of S_n generated by {s_i : i in indices}.

    The generated group is a direct product of symmetric groups on the
    maximal runs of consecutive indices, so it is enumerated block by block
    rather than by generic closure.

    >>> sorted(young_subgroup(3, {2}))
    [(1, 2, 3), (1, 3, 2)]
    >>> len(young_subgroup(5, {2, 4}))
    4
    """
    blocks = _index_blocks(n, indices)
    members = []
    per_block = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*per_block):
        word = list(range(1, n + 1))
        for block, images in zip(blocks, choice):
            for pos, img in zip(block, images):
                word[pos - 1] = img
        members.append(tuple(word))
    return members


def parse_permutation(text: str) -> Perm:
    """Parse the comma-separated one-line form, e.g. "3,2,4,1".

    >>> parse_permutation("3,2,4,1")
    (3, 2, 4, 1)
    """
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed permutation {text!r}") from None
    if not word or not is_permutation(word):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(word)}")
    return word


def format_permutation(w: Perm) -> str:
    """Comma-separated one-line form, inverse of :func:`parse_permutation`."""
    return ",".join(str(v) for v in w)
