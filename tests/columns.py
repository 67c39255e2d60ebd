"""The one reader of basis.rmul_columns in the tests, for columns checked
against group-algebra arithmetic or rendered as Fractions."""

from fractions import Fraction


def perm_columns(family, columns):
    """The integer columns that rmul_columns draws in the family, as
    (w, column) pairs with w in lexicographic order: each rank v becomes the
    permutation family.perms[v] and each integer c over the common
    denominator d the number Fraction(c, d); cancelled zeros are dropped."""
    perms = family.perms
    for w, (d, column) in zip(perms, columns, strict=True):
        yield w, {perms[v]: Fraction(c, d) for v, c in column.items() if c}
