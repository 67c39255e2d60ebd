"""The readers of basis.rmul_columns in the tests, for columns checked
against group-algebra arithmetic or rendered as Fractions."""

from fractions import Fraction

from cycleshuffles import basis


def lex_columns(x, family):
    """The columns of right multiplication by x that rmul_columns draws in
    the family, one per basis vector in lexicographic order, each as
    (d, column) with d the common denominator of x."""
    den, columns = basis.rmul_columns(x, family, range(len(family.perms)))
    return ((den, column) for column in columns)


def perm_columns(family, columns):
    """The (d, column) pairs of lex_columns as (w, column) pairs with w in
    lexicographic order: each rank v becomes the permutation family.perms[v]
    and each integer c over the common denominator d the number
    Fraction(c, d); cancelled zeros are dropped."""
    perms = family.perms
    for w, (d, column) in zip(perms, columns, strict=True):
        yield w, {perms[v]: Fraction(c, d) for v, c in column.items() if c}
