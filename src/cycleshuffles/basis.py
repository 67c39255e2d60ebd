"""The descent-destroying basis a_w, Q-indices, the dual basis b_w, and
matrices of right multiplication in these bases.

a_w is the sum of w over its descent Young subgroup: split the one-line word
of w into maximal decreasing blocks and sum all rearrangements within the
blocks.  Each a_w is w plus lexicographically smaller permutations, so the
change of basis from the permutation basis is unitriangular over the
integers; expansions in the a-basis therefore go by back-substitution along
descending lexicographic order, with no matrix inversion.

The Q-index of w is the first catalog position i with non_shadow(Q_i)
contained in the descent set of w.  Ordered by increasing Q-index, the
a-basis triangularizes right multiplication by every t_ell simultaneously;
the dual basis b_w ordered by decreasing Q-index does the same for every
t'_ell.

The b-coefficients of y are the bilinear forms f(a_p, y).  They are read
off the transposed incidence of the a-family, "which a_p contain w", built
once per family: each w in the support of y adds y[w] to the few p with w
in a_p, instead of one bilinear form per basis element.

Each family -- the permutation basis, the a-basis or the b-basis -- keeps
its elements as rows of (rank, integer) pairs, and the expansion of an
integer vector over ranks back into the family, fixed where the family is
built: none, the back-substitution over its own rows, or the incidence of
its a-family.  One integer kernel draws the columns of right
multiplication in a family, in lexicographic order: the row of w times the
integer numerators of x through the gather tables of the algebra module,
expanded by the family.  rmul_columns divides each column by the common
denominator of x, for the triangularity checks.  rmul_rows, the one place
that reads a basis by name, keeps the integers: it gives each row of the
matrix in the named order as the numerators of its nonzero entries, keyed
by column position, over one denominator.  The matrix export renders these
rows as they stand; rmul_matrix turns them into dense Fractions for the
transition matrices and the char-poly oracle.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterator, Literal, Sequence

from .algebra import AlgebraElement, divide_terms, integer_terms, rank_factors, rank_product, sn_index
from .inputs import Scalar, require_within_cap
from .lacunar import LacunarCatalog, enumerate_lacunar, set_to_mask
from .perms import Perm, descent_set

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
    its dual ("b") -- as integer rows over lexicographic ranks: rows[r]
    lists (rank(v), [v] element) for the element indexed by the r-th
    permutation.  ``expand`` maps an integer vector over ranks to its
    coefficients in the family (None for the permutation basis).

    ``perms`` holds the lexicographic order, the order in which the change
    of basis to the permutation basis is unitriangular.
    """

    def __init__(self, n: int, rows: Sequence[Row], kind: str, expand: Expand | None):
        self.n = n
        self.perms: tuple[Perm, ...] = sn_index(n)[0]
        self.rows: tuple[Row, ...] = tuple(rows)
        self.kind = kind
        self.expand = expand

    def __getitem__(self, w: Perm) -> AlgebraElement:
        perms, rank = sn_index(self.n)
        return AlgebraElement(self.n, {perms[v]: c for v, c in self.rows[rank[w]]})

    @cached_property
    def containing(self) -> list[list[int]]:
        """The transpose of the a-family: for each rank v, the ranks p whose
        a_p contains v, in increasing order (every coefficient of a_p is 1)."""
        if self.kind != "a":
            raise ValueError("expansion in the dual basis needs the a-family")
        incidence: list[list[int]] = [[] for _ in self.perms]
        for p, row in enumerate(self.rows):
            for v, _ in row:
                incidence[v].append(p)
        return incidence


def build_std_family(n: int, max_n: int | None = None) -> BasisFamily:
    """The permutation basis: one unit row per permutation, no expansion."""
    require_within_cap(n, max_n)
    return BasisFamily(n, [[(r, 1)] for r in range(math.factorial(n))], kind="std", expand=None)


def build_a_family(n: int, max_n: int | None = None) -> BasisFamily:
    """The a-basis, expanded by back-substitution over its own rows."""
    require_within_cap(n, max_n)
    perms, rank = sn_index(n)
    rows = tuple([(rank[v], 1) for v in _young_words(w)] for w in perms)
    return BasisFamily(n, rows, kind="a", expand=partial(_back_substitute, rows))


def _back_substitute(a_rows: Sequence[Row], work: dict[int, int]) -> dict[int, int]:
    """a-coefficients of the integer vector work (rank -> int), which is used up.

    At each step the largest surviving rank r must be carried by a_r (every
    other a_v with v < r only contains ranks < r), so subtracting
    work[r] * a_r is forced; the diagonal term of a_r is 1, so it zeroes
    work[r].  The pending ranks are kept sorted, and every rank a_r adds is
    below r, so the largest is always the last.
    """
    pending = sorted(work)
    insort = bisect.insort
    out: dict[int, int] = {}
    while pending:
        r = pending.pop()
        c = work[r]
        if not c:
            continue
        out[r] = c
        for v, av in a_rows[r]:
            if v in work:
                work[v] -= c * av
            else:
                work[v] = -c * av
                insort(pending, v)
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


def _perm_terms(coefficients: dict[int, int], den: int, n: int) -> dict[Perm, Scalar]:
    """The rank-keyed integers over den, keyed by permutation, zeros dropped."""
    perms = sn_index(n)[0]
    return divide_terms({perms[r]: c for r, c in coefficients.items() if c}, den)


def _rank_terms(x: AlgebraElement) -> tuple[int, dict[int, int]]:
    """A common denominator d of x and the integers d * x keyed by rank."""
    rank = sn_index(x.n)[1]
    den, numerators = integer_terms(x.terms)
    return den, {rank[w]: c for w, c in numerators}


def expand_in_a(x: AlgebraElement, family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of x in the a-basis, by descending-lex back-substitution
    on the integer numerators of x."""
    if family.kind != "a":
        raise ValueError("expansion by back-substitution needs the a-family")
    _require_degree(family, x.n)
    den, work = _rank_terms(x)
    return _perm_terms(family.expand(work), den, x.n)


def dual_basis(family: BasisFamily) -> BasisFamily:
    """The basis (b_w) with bilinear_form(a_p, b_q) = [p = q].

    The a-expansion of each permutation v supplies one coefficient per b_q:
    if v = sum of c_q a_q then [v] b_q = c_q, i.e. the dual change of basis
    is the inverse transpose of the unitriangular one, exact over Z.
    """
    if family.kind != "a":
        raise ValueError("dual_basis expects the a-family")
    rows: list[Row] = [[] for _ in family.perms]
    for v in range(len(family.perms)):
        for q, c in family.expand({v: 1}).items():
            rows[q].append((v, c))
    return BasisFamily(family.n, rows, kind="b", expand=partial(_pair, family.containing))


def expand_in_b(y: AlgebraElement, a_family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of y in the dual basis: the b_p-coefficient is f(a_p, y),
    accumulated over the support of y through the family's incidence."""
    _require_degree(a_family, y.n)
    den, y_ranks = _rank_terms(y)
    return _perm_terms(_pair(a_family.containing, y_ranks), den, y.n)


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


def rmul_columns(x: AlgebraElement, family: BasisFamily) -> Iterator[tuple[Perm, dict[Perm, Scalar]]]:
    """Sparse columns of y -> y x in the family, as (w, column) pairs in
    lexicographic order of w, each computed when it is drawn.

    Column w maps each row index v to the coefficient of the v-th basis
    vector in (basis vector w) * x.  The degree is checked on the call; the
    family passed the cap when it was built.
    """
    _require_degree(family, x.n)
    columns = _columns(x, family)
    return ((w, _perm_terms(column, den, x.n)) for w, (den, column) in zip(family.perms, columns))


def _columns(x: AlgebraElement, family: BasisFamily) -> Iterator[tuple[int, dict[int, int]]]:
    """The integer kernel of right multiplication: for each basis vector, in
    lexicographic order, a common denominator d of x and the column times d
    over ranks -- the vector's row times the integer numerators d * x
    through the gather tables, expanded back into the family (the std basis
    needs no expansion)."""
    den, factors = rank_factors(x.terms, x.n)
    for row in family.rows:
        product = rank_product(row, factors)
        yield den, product if family.expand is None else family.expand(product)


SparseRows = list[list[tuple[int, int]]]


def rmul_rows(
    x: AlgebraElement,
    basis: BasisName = "a",
    order: str = "lex",
    max_n: int | None = None,
    transpose: bool = False,
) -> tuple[tuple[Perm, ...], int, SparseRows]:
    """The matrix of y -> y x in the chosen basis, rows and columns in the
    named order (see basis_order), as (labels, d, rows): d is a common
    denominator of x, and each row lists the (column position, integer c)
    pairs of its nonzero entries c / d, in increasing position.  With
    transpose the rows are those of the transposed matrix, the columns as
    the kernel draws them."""
    if basis not in ("std", "a", "b"):
        raise ValueError(f"unknown basis {basis!r}; expected std, a or b")
    ordered = basis_order(x.n, order, max_n)
    family = (build_std_family if basis == "std" else build_a_family)(x.n, max_n)
    if basis == "b":
        family = dual_basis(family)
    position = {w: k for k, w in enumerate(ordered)}
    at = [position[w] for w in family.perms]  # lexicographic rank -> position in the order
    columns: SparseRows = [[] for _ in ordered]
    for r, (den, column) in enumerate(_columns(x, family)):
        columns[at[r]] = [(at[v], c) for v, c in column.items() if c]
    if transpose:
        for column in columns:
            column.sort()
        return ordered, den, columns
    rows: SparseRows = [[] for _ in ordered]
    for j, column in enumerate(columns):
        for i, c in column:
            rows[i].append((j, c))
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
