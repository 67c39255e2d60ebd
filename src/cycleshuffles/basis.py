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

rmul_columns is the one builder of the columns of right multiplication, in
the permutation basis, the a-basis or the b-basis: rmul_matrix, the
transition matrices, and the triangularity and antipode checks all draw
their columns from it, one at a time, in lexicographic order.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from typing import Iterator, Literal, Mapping

from .algebra import (
    AlgebraElement,
    Scalar,
    divide_terms,
    integer_terms,
    require_within_cap,
    rmul_terms,
    sn_index,
)
from .lacunar import LacunarCatalog, enumerate_lacunar, set_to_mask
from .perms import Perm, descent_set


def a_element(w: Perm) -> AlgebraElement:
    """Sum of w sigma over sigma in the Young subgroup of the descent set of w.

    >>> a_element((2, 3, 1)) == AlgebraElement(3, {(2, 3, 1): 1, (2, 1, 3): 1})
    True
    >>> len(a_element((3, 2, 1)))
    6
    """
    n = len(w)
    blocks: list[list[int]] = [[w[0]]]
    for value in w[1:]:
        if blocks[-1][-1] > value:
            blocks[-1].append(value)
        else:
            blocks.append([value])
    terms: dict[Perm, Scalar] = {}
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        terms[tuple(itertools.chain.from_iterable(choice))] = 1
    return AlgebraElement(n, terms)


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
    """The a-basis of Q[S_n] (or its dual), indexed by permutations.

    ``perms`` holds the lexicographic order, the order in which the change
    of basis to the permutation basis is unitriangular.
    """

    def __init__(self, n: int, elements: Mapping[Perm, AlgebraElement], kind: str):
        self.n = n
        self.perms: tuple[Perm, ...] = sn_index(n)[0]
        self.elements = dict(elements)
        self.kind = kind

    def __getitem__(self, w: Perm) -> AlgebraElement:
        return self.elements[w]

    @cached_property
    def containing(self) -> dict[Perm, list[tuple[Perm, Scalar]]]:
        """The transpose of the family: w -> [(p, [w] element_p), ...] over
        the p whose element contains w, p in lexicographic order."""
        incidence: dict[Perm, list[tuple[Perm, Scalar]]] = {w: [] for w in self.perms}
        for p in self.perms:
            for w, c in self.elements[p].terms.items():
                incidence[w].append((p, c))
        return incidence


def build_a_family(n: int, max_n: int | None = None) -> BasisFamily:
    require_within_cap(n, max_n)
    return BasisFamily(n, {w: a_element(w) for w in sn_index(n)[0]}, kind="a")


def expand_in_a(x: AlgebraElement, family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of x in the a-basis, by descending-lex back-substitution.

    At each step the lexicographically largest surviving permutation w must
    be carried by a_w (every other a_v with v < w only contains words < w),
    so subtracting coefficient * a_w is forced and terminates.  The
    denominators of x are cleared first, so the elimination runs on
    integers.
    """
    if family.kind != "a":
        raise ValueError("expansion by back-substitution needs the a-family")
    perms, rank = sn_index(family.n)
    den, numerators = integer_terms(x.terms)
    work = dict(numerators)
    heap = [-rank[w] for w in work]
    heapq.heapify(heap)
    out: dict[Perm, Scalar] = {}
    while heap:
        w = perms[-heapq.heappop(heap)]
        c = work.get(w, 0)
        if not c:
            continue
        out[w] = c
        for v, av in family.elements[w].terms.items():
            s = work.get(v, 0) - c * av
            if s:
                if v not in work:
                    heapq.heappush(heap, -rank[v])
                work[v] = s
            else:
                work.pop(v, None)
    return divide_terms(out, den)


def dual_basis(family: BasisFamily) -> BasisFamily:
    """The basis (b_w) with bilinear_form(a_p, b_q) = [p = q].

    The a-expansion of each permutation v supplies one coefficient per b_q:
    if v = sum of c_q a_q then [v] b_q = c_q, i.e. the dual change of basis
    is the inverse transpose of the unitriangular one, exact over Z.
    """
    if family.kind != "a":
        raise ValueError("dual_basis expects the a-family")
    n = family.n
    columns: dict[Perm, dict[Perm, Scalar]] = {w: {} for w in family.perms}
    for v in family.perms:
        for q, c in expand_in_a(AlgebraElement.from_perm(v), family).items():
            columns[q][v] = c
    return BasisFamily(
        n, {q: AlgebraElement(n, col) for q, col in columns.items()}, kind="b"
    )


def expand_in_b(y: AlgebraElement, a_family: BasisFamily) -> dict[Perm, Scalar]:
    """Coefficients of y in the dual basis: the b_p-coefficient is f(a_p, y),
    accumulated over the support of y through the family's incidence."""
    if a_family.kind != "a":
        raise ValueError("expansion in the dual basis needs the a-family")
    containing = a_family.containing
    out: dict[Perm, Scalar] = {}
    for w, yw in y.terms.items():
        for p, c in containing[w]:
            out[p] = out.get(p, 0) + c * yw
    return {p: c for p, c in out.items() if c}


BasisName = Literal["std", "a", "b"]


def basis_order(n: int, order: str, max_n: int | None = None) -> tuple[Perm, ...]:
    """Permutation orderings for matrix rows/columns.

    "lex" is plain lexicographic; "qindex" sorts by increasing Q-index with
    lexicographic tie-break, "qindex-desc" by decreasing Q-index likewise.
    """
    require_within_cap(n, max_n)
    perms = sn_index(n)[0]
    if order == "lex":
        return perms
    table = QIndexTable(n, max_n)
    if order == "qindex":
        return tuple(sorted(perms, key=lambda w: (table[w], w)))
    if order == "qindex-desc":
        return tuple(sorted(perms, key=lambda w: (-table[w], w)))
    raise ValueError(f"unknown order {order!r}; expected lex, qindex or qindex-desc")


def rmul_columns(
    x: AlgebraElement,
    basis: BasisName = "a",
    a_family: BasisFamily | None = None,
    b_family: BasisFamily | None = None,
    max_n: int | None = None,
) -> Iterator[tuple[Perm, dict[Perm, Scalar]]]:
    """Sparse columns of the right-multiplication map y -> y x, as (w, column)
    pairs in lexicographic order of w, each computed when it is drawn.

    Column w maps each row index v to the coefficient of the v-th basis
    vector in (basis vector w) * x.  The cap and the basis name are checked,
    and the families built, when this is called.
    """
    n = x.n
    require_within_cap(n, max_n)
    if basis == "std":
        return ((w, rmul_terms({w: 1}, x.terms, n)) for w in sn_index(n)[0])
    if basis not in ("a", "b"):
        raise ValueError(f"unknown basis {basis!r}; expected std, a or b")
    a_family = a_family or build_a_family(n, max_n)
    if basis == "a":
        return ((w, expand_in_a(a_family.elements[w] * x, a_family)) for w in a_family.perms)
    b_family = b_family or dual_basis(a_family)
    return ((w, expand_in_b(b_family.elements[w] * x, a_family)) for w in a_family.perms)


def rmul_matrix(
    x: AlgebraElement, basis: BasisName = "a", order: str = "lex", max_n: int | None = None
) -> tuple[tuple[Perm, ...], list[list[Scalar]]]:
    """Dense matrix of y -> y x in the chosen basis, rows and columns in the
    named order (see basis_order)."""
    columns = rmul_columns(x, basis, max_n=max_n)
    ordered = basis_order(x.n, order, max_n)
    position = {w: k for k, w in enumerate(ordered)}
    size = len(ordered)
    matrix: list[list[Scalar]] = [[0] * size for _ in range(size)]
    for w, col in columns:
        j = position[w]
        for v, c in col.items():
            matrix[position[v]][j] = c
    return ordered, matrix


def filtration_dimensions(catalog: LacunarCatalog, max_n: int | None = None) -> tuple[int, ...]:
    """(dim F_0, ..., dim F_last) with dim F_i = #{w : Qind w <= i}.

    Counts by enumerating S_n; the multiplicity formula in the spectrum
    module reproduces the same dimensions without the factorial sweep.

    >>> filtration_dimensions(enumerate_lacunar(4))
    (0, 1, 4, 12, 18, 24)
    """
    table = QIndexTable(catalog.n, max_n)
    counts = [0] * (len(catalog) + 1)
    for i in table.index.values():
        counts[i] += 1
    dims = [0]
    for c in counts[1:]:
        dims.append(dims[-1] + c)
    return tuple(dims)
