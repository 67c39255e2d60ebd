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
from typing import Iterator, Sequence

Perm = tuple[int, ...]


def _require_permutation(w: Perm, n: int) -> None:
    """Refuse a word of length n whose letters are not 1, ..., n."""
    if set(range(1, n + 1)).difference(w):
        raise ValueError(f"{w} is not a permutation of [{n}]")


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


def format_permutation(w: Perm) -> str:
    """Comma-separated one-line form: (3, 2, 4, 1) -> "3,2,4,1"."""
    return ",".join(str(v) for v in w)
