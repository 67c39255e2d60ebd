"""The columns of right multiplication in the tests, drawn by
basis.rmul_columns or, for the b-basis, built in the group algebra, for
columns checked against group-algebra arithmetic or rendered as Fractions."""

from fractions import Fraction

from cycleshuffles import basis
from cycleshuffles.algebra import integer_terms, sn_index


def lex_columns(x, family):
    """The columns of right multiplication by x in the family, one per basis
    vector in lexicographic order, each as (d, column) with d the common
    denominator of x: those that rmul_columns draws for the std and a
    families.  rmul_columns draws no b-column, so the column of b_q is
    b_q (d x) built in the group algebra and expanded as expand_in_b does,
    by the family's own expansion."""
    if family.kind != "b":
        den, columns = basis.rmul_columns(x, family, range(len(family.perms)))
        return ((den, column) for column in columns)
    den = integer_terms(x.terms)[0]
    rank = sn_index(family.n)[1]
    scaled = x * den
    return (
        (den, family.expand({rank[v]: c for v, c in (family[q] * scaled).terms.items()})) for q in family.perms
    )


def perm_columns(family, columns):
    """The (d, column) pairs of lex_columns as (w, column) pairs with w in
    lexicographic order: each rank v becomes the permutation family.perms[v]
    and each integer c over the common denominator d the number
    Fraction(c, d); cancelled zeros are dropped."""
    perms = family.perms
    for w, (d, column) in zip(perms, columns, strict=True):
        yield w, {perms[v]: Fraction(c, d) for v, c in column.items() if c}
