"""The descent-destroying basis a_w, Q-indices, the dual basis b_w, and
matrices of right multiplication in these bases.

a_w is the sum of w over its descent Young subgroup: split the one-line word
of w into maximal decreasing blocks and sum all rearrangements within the
blocks.  w is decreasing on each block, so a_w is w plus permutations with
fewer inversions, and the change of basis from the permutation basis is
unitriangular over the integers; expansions in the a-basis therefore go by
back-substitution, level by inversion level from the top, with no matrix
inversion.  Conjugation by the longest permutation w0 is an automorphism
that sends a_w to a_{w0 w w0} (the mirror map of the algebra module), so
the a-family lists the words of one member of each mirror pair, and the
dual basis expands one unit vector of each.

The Q-index of w is the first catalog position i with non_shadow(Q_i)
contained in the descent set of w.  Ordered by increasing Q-index, the
a-basis triangularizes right multiplication by every t_ell simultaneously;
the dual basis b_w ordered by decreasing Q-index does the same for every
t'_ell.

The b-coefficients of y are the bilinear forms f(a_p, y).  They are read
off the transposed incidence of the a-family, "which a_p contain w", built
once per family: each w in the support of y adds y[w] to the few p with w
in a_p, instead of one bilinear form per basis element.

Each family keeps its elements as rows over lexicographic ranks, and the
expansion of an integer vector over ranks back into it: none, the
back-substitution over its own rows, or the incidence of its a-family.
Std and a-rows list the ranks their elements sum; b-rows, whose
coefficients are not all 1, list (rank, integer) pairs.  rmul_columns
draws the columns of right multiplication in the std or a family, in the
order its caller gives: the ranks of the row of w times d * x through the
algebra module's gather tables, expanded, as integers keyed by rank over d.
rmul_rows, the one place that reads a basis by name, gives the rows of the
matrix in the named order as the numerators of their nonzero entries,
keyed by column position, over d.  Transposes come from the antipode S: as
f(u x, v) = f(u, v S(x)), a b-row of R(x) is an a-column of R(S(x)), and a
std row of R(x) is a std column of R(S(x)), so these rows are drawn one at
a time as they are read; an a-row is a transposed column, so only the
a-matrix is held whole.  The matrix export renders the rows as they come,
and rmul_matrix turns them into dense Fractions for the transition
matrices and the char-poly oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .algebra import (
    AlgebraElement,
    divide_terms,
    integer_terms,
    mirror_ranks,
    rank_factors,
    rank_product,
    sn_index,
)
from .inputs import Scalar, require_within_cap
from .lacunar import LacunarCatalog, enumerate_lacunar, set_to_mask
from .perms import Perm, _require_permutation, descent_set

Row = list[tuple[int, int]]
Expand = Callable[[dict[int, int]], dict[int, int]]


def _young_words(w: Perm) -> Iterator[Perm]:
    """w sigma over sigma in the Young subgroup of the descent set of w, w first."""
    blocks: list[list[int]] = [[w[0]]]
    for value in w[1:]:
        if blocks[-1][-1] > value:
            blocks[-1].append(value)
        else:
            blocks.append([value])
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        yield tuple(itertools.chain.from_iterable(choice))


def a_element(w: Perm) -> AlgebraElement:
    """Sum of w sigma over sigma in the Young subgroup of the descent set of w.

    >>> a_element((2, 3, 1)) == AlgebraElement(3, {(2, 3, 1): 1, (2, 1, 3): 1})
    True
    >>> len(a_element((3, 2, 1)))
    6
    """
    return AlgebraElement(len(w), dict.fromkeys(_young_words(w), 1))


def q_index(w: Perm, catalog: LacunarCatalog) -> int:
    """Smallest catalog position i with non_shadow(Q_i) inside the descents of w.

    >>> q_index((4, 3, 1, 2), enumerate_lacunar(4))
    4
    >>> q_index((1, 2, 3, 4), enumerate_lacunar(4))
    5
    """
    if len(w) != catalog.n:
        raise ValueError(f"degree mismatch: {len(w)} vs {catalog.n}")
    _require_permutation(w, catalog.n)
    des = set_to_mask(descent_set(w))
    for i, np_mask in enumerate(catalog.non_shadow_masks, start=1):
        if np_mask & des == np_mask:
            return i
    raise RuntimeError(f"no Q-index found for {w}; catalog broken")


class QIndexTable:
    """Q-indices of every permutation in S_n (enumerates S_n, so capped)."""

    def __init__(self, n: int, max_n: int | None = None):
        require_within_cap(n, max_n)
        self.n = n
        self.catalog = enumerate_lacunar(n)
        self.index: dict[Perm, int] = {w: q_index(w, self.catalog) for w in sn_index(n)[0]}

    def __getitem__(self, w: Perm) -> int:
        return self.index[w]


class BasisFamily:
    """A basis of Q[S_n] -- the permutations ("std"), the a-basis ("a") or
    its dual ("b") -- as rows over lexicographic ranks: rows[r] lists the
    ranks summed in the element indexed by the r-th permutation, or for b
    its (rank(v), [v] element) pairs.  ``expand`` maps an integer vector
    over ranks to its coefficients in the family (None for std).

    ``perms`` holds the lexicographic order, the order in which the change
    of basis to the permutation basis is unitriangular.
    """

    def __init__(self, n: int, rows: Sequence[list[int]] | Sequence[Row], kind: str, expand: Expand | None):
        self.n = n
        self.perms: tuple[Perm, ...] = sn_index(n)[0]
        self.rows = rows
        self.kind = kind
        self.expand = expand

    def __getitem__(self, w: Perm) -> AlgebraElement:
        perms, rank = sn_index(self.n)
        pairs = self.rows[rank[w]] if self.kind == "b" else ((v, 1) for v in self.rows[rank[w]])
        return AlgebraElement(self.n, {perms[v]: c for v, c in pairs})

    @cached_property
    def containing(self) -> list[list[int]]:
        """The transpose of the a-family: for each rank v, the ranks p whose
        a_p contains v, in increasing order (every coefficient of a_p is 1)."""
        if self.kind != "a":
            raise ValueError("expansion in the dual basis needs the a-family")
        incidence: list[list[int]] = [[] for _ in self.perms]
        for p, row in enumerate(self.rows):
            for v in row:
                incidence[v].append(p)
        return incidence


def build_std_family(n: int, max_n: int | None = None) -> BasisFamily:
    """The permutation basis: the row [r] of the r-th permutation, no expansion."""
    require_within_cap(n, max_n)
    return BasisFamily(n, [[r] for r in range(math.factorial(n))], kind="std", expand=None)


def build_a_family(n: int, max_n: int | None = None) -> BasisFamily:
    """The a-basis: rows[r] lists the ranks of the Young words of a_r, r
    first, the lists its back-substitution reads.  They are listed for one
    member of each mirror pair (w, w0 w w0) and read through the mirror map
    for the other, since a_{w0 w w0} = w0 a_w w0."""
    require_within_cap(n, max_n)
    perms, rank = sn_index(n)
    mirror = mirror_ranks(n)
    rows: list[list[int]] = []
    for r, w in enumerate(perms):
        m = mirror[r]
        rows.append([mirror[v] for v in rows[m]] if m < r else [rank[v] for v in _young_words(w)])
    return BasisFamily(n, rows, kind="a", expand=partial(_back_substitute, rows, _inversion_levels(n)))


def _inversion_levels(n: int) -> list[int]:
    """The inversion count of each permutation of S_n, by lexicographic rank:
    the digit sum of the rank in the factorial base, whose digits are the
    Lehmer code of the permutation.

    >>> _inversion_levels(3)
    [0, 1, 1, 2, 2, 3]
    """
    levels = [0]
    for k in range(2, n + 1):
        levels = [d + level for d in range(k) for level in levels]
    return levels


def _back_substitute(a_ranks: Sequence[list[int]], levels: Sequence[int], work: dict[int, int]) -> dict[int, int]:
    """a-coefficients of the integer vector work (rank -> int), which is used up.

    a_ranks[r] lists the ranks of the words of a_r, r first, and levels[r]
    is the inversion count of r.  A permutation is decreasing on each block
    of its descent Young subgroup, so every other word of a_r has fewer
    inversions than r: a surviving rank r with the most inversions is
    carried by a_r alone, and subtracting work[r] * a_r is forced.  So the
    pending ranks are taken level by level from the top, in any order
    within a level, and each subtraction adds ranks to lower levels only.
    """
    pending: list[list[int]] = [[] for _ in range(levels[-1] + 1)]
    for r in work:
        pending[levels[r]].append(r)
    out: dict[int, int] = {}
    for level in reversed(pending):
        for r in level:
            c = work[r]
            if not c:
                continue
            out[r] = c
            for v in a_ranks[r]:
                if v in work:
                    work[v] -= c
                else:
                    work[v] = -c
                    pending[levels[v]].append(v)
    return out


def _pair(containing: Sequence[list[int]], y: dict[int, int]) -> dict[int, int]:
    """b-coefficients f(a_p, y) of the integer vector y (rank -> int), through
    the a-family's transposed incidence."""
    out: dict[int, int] = {}
    get = out.get
    for v, yv in y.items():
        if yv:
            for p in containing[v]:
                out[p] = get(p, 0) + yv
    return out


def _require_degree(family: BasisFamily, n: int) -> None:
    if family.n != n:
        raise ValueError(f"degree mismatch: family of degree {family.n}, element of degree {n}")


def _perm_terms(x: AlgebraElement, expand: Expand) -> dict[Perm, Scalar]:
    """The coefficients of x by the expansion: the integers d * x keyed by
    rank, expanded, then over d and keyed by permutation, zeros dropped."""
    perms, rank = sn_index(x.n)
    den, numerators = integer_terms(x.terms)
    coefficients = expand({rank[w]: c for w, c in numerators})
    return divide_terms({perms[r]: c for r, c in coefficients.items() if c}, den)


def expand_in_a(x: AlgebraElement, family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of x in the a-basis, by back-substitution from the top
    inversion level down on the integer numerators of x."""
    if family.kind != "a":
        raise ValueError("expansion by back-substitution needs the a-family")
    _require_degree(family, x.n)
    return _perm_terms(x, family.expand)


def dual_basis(family: BasisFamily) -> BasisFamily:
    """The basis (b_w) with bilinear_form(a_p, b_q) = [p = q], as (rank, c) rows.

    The a-expansion of each permutation v supplies one coefficient per b_q:
    if v = sum of c_q a_q then [v] b_q = c_q, i.e. the dual change of basis
    is the inverse transpose of the unitriangular one, exact over Z.  Only
    one unit vector of each mirror pair (v, w0 v w0) is expanded: the
    expansion of the other is the same with every rank mirrored.
    """
    if family.kind != "a":
        raise ValueError("dual_basis expects the a-family")
    mirror = mirror_ranks(family.n)
    rows: list[Row] = [[] for _ in family.perms]
    for v, m in enumerate(mirror):
        if m < v:
            continue  # written with the expansion of its mirror m
        # the b_q sharing one coefficient at v share its pair; v = sum of c a_q gives m = sum of c a_{mirror q}
        pairs: dict[int, tuple[int, int]] = {}
        mirrored: dict[int, tuple[int, int]] = {}
        for q, c in family.expand({v: 1}).items():
            rows[q].append(pairs.setdefault(c, (v, c)))
            if m != v:
                rows[mirror[q]].append(mirrored.setdefault(c, (m, c)))
    return BasisFamily(family.n, rows, kind="b", expand=partial(_pair, family.containing))


def expand_in_b(y: AlgebraElement, a_family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of y in the dual basis: the b_p-coefficient is f(a_p, y),
    accumulated over the support of y through the family's incidence."""
    _require_degree(a_family, y.n)
    return _perm_terms(y, partial(_pair, a_family.containing))


BasisName = Literal["std", "a", "b"]


def basis_order(n: int, order: str, max_n: int | None = None) -> tuple[Perm, ...]:
    """Permutation orderings for matrix rows/columns.

    "lex" is plain lexicographic; "qindex" sorts by increasing Q-index with
    lexicographic tie-break, "qindex-desc" by decreasing Q-index likewise.
    """
    if order not in ("lex", "qindex", "qindex-desc"):
        raise ValueError(f"unknown order {order!r}; expected lex, qindex or qindex-desc")
    require_within_cap(n, max_n)
    perms = sn_index(n)[0]
    if order == "lex":
        return perms
    table = QIndexTable(n, max_n)
    if order == "qindex":
        return tuple(sorted(perms, key=lambda w: (table[w], w)))
    return tuple(sorted(perms, key=lambda w: (-table[w], w)))


def rmul_columns(
    x: AlgebraElement, family: BasisFamily, order: Sequence[int]
) -> tuple[int, Iterator[dict[int, int]]]:
    """Right multiplication y -> y x in the std or a family as (d, columns),
    the degree and family checked on the call: d is a common denominator of
    x, and columns yields, for each rank r in order and as it is drawn, the
    column of the r-th basis vector, d times the coefficient of the v-th
    basis vector in (r-th basis vector) * x by rank v, maybe a cancelled zero."""
    _require_degree(family, x.n)
    if family.kind == "b":
        raise ValueError("b-columns are not drawn; expand b_q x with expand_in_b")
    den, factors = rank_factors(x.terms, x.n)
    products = (rank_product(family.rows[r], factors) for r in order)
    return den, products if family.expand is None else map(family.expand, products)


def rmul_rows(
    x: AlgebraElement, basis: BasisName = "a", order: str = "lex", max_n: int | None = None
) -> tuple[tuple[Perm, ...], int, Iterable[Row]]:
    """The matrix of y -> y x in the chosen basis, rows and columns in the
    named order (see basis_order), as (labels, d, rows): d is a common
    denominator of x, and each row lists the (column position, integer c)
    pairs of its nonzero entries c / d, in increasing position.  Std row u
    is std column u of R(S(x)), and b row p is a-column p: those rows are
    drawn as they are read.  The a-rows are collected whole, each column's
    entries appended to their rows as the column is drawn."""
    if basis not in ("std", "a", "b"):
        raise ValueError(f"unknown basis {basis!r}; expected std, a or b")
    ordered = basis_order(x.n, order, max_n)
    family = (build_std_family if basis == "std" else build_a_family)(x.n, max_n)
    rank = sn_index(x.n)[1]
    ranks = [rank[w] for w in ordered]
    at = {r: k for k, r in enumerate(ranks)}  # lexicographic rank -> position in the order
    if basis != "a":
        den, columns = rmul_columns(x.antipode(), family, ranks)
        return ordered, den, (sorted((at[v], c) for v, c in column.items() if c) for column in columns)
    den, columns = rmul_columns(x, family, ranks)
    rows: list[Row] = [[] for _ in ordered]
    for j, column in enumerate(columns):
        for v, c in column.items():
            if c:
                rows[at[v]].append((j, c))
    return ordered, den, rows


def rmul_matrix(
    x: AlgebraElement, basis: BasisName = "a", order: str = "lex", max_n: int | None = None
) -> tuple[tuple[Perm, ...], list[list[Scalar]]]:
    """Dense matrix of y -> y x in the chosen basis, rows and columns in the
    named order (see basis_order): the rows of rmul_rows with every entry
    an int when d is 1 and a reduced Fraction otherwise."""
    ordered, den, rows = rmul_rows(x, basis, order, max_n)
    matrix: list[list[Scalar]] = []
    for row in rows:
        dense: list[Scalar] = [0] * len(ordered)
        for j, c in row:
            dense[j] = c if den == 1 else Fraction(c, den)
        matrix.append(dense)
    return ordered, matrix


def filtration_dimensions(n: int, max_n: int | None = None) -> tuple[int, ...]:
    """(dim F_0, ..., dim F_last) with dim F_i = #{w : Qind w <= i}.

    Counts by enumerating S_n; the multiplicity formula in the spectrum
    module reproduces the same dimensions without the factorial sweep.

    >>> filtration_dimensions(4)
    (0, 1, 4, 12, 18, 24)
    """
    table = QIndexTable(n, max_n)
    counts = [0] * (len(table.catalog) + 1)
    for i in table.index.values():
        counts[i] += 1
    dims = [0]
    for c in counts[1:]:
        dims.append(dims[-1] + c)
    return tuple(dims)
