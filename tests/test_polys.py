from fractions import Fraction

import pytest

from cycleshuffles.polys import Polynomial, poly_gcd, poly_lcm


def test_normalization():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial(()).is_zero()
    assert Polynomial((0,)).is_zero()
    assert Polynomial((5,)).degree == 0
    assert Polynomial.zero().degree == -1


def test_arithmetic():
    p = Polynomial((1, 1))  # 1 + x
    q = Polynomial((-1, 1))  # -1 + x
    assert p * q == Polynomial((-1, 0, 1))
    assert p + q == Polynomial((0, 2))
    assert p - p == Polynomial.zero()
    assert 3 * p == Polynomial((3, 3))
    # a shorter left operand: the longer one is copied and the shorter added in
    assert Polynomial((2,)) + Polynomial((1, 0, 1)) == Polynomial((3, 0, 1))


def test_equal_polynomials_hash_equal_and_foreign_types_compare_unequal():
    assert hash(Polynomial((1, 2))) == hash(Polynomial((Fraction(1), Fraction(2))))
    assert len({Polynomial((Fraction(-3, 3), 0, 4)), Polynomial((-1, 0, 4))}) == 1
    assert Polynomial.one().__eq__(1) is NotImplemented
    assert Polynomial.one() != 1


def test_repr():
    assert repr(Polynomial.zero()) == "Polynomial(0)"
    assert repr(Polynomial((Fraction(-1, 2), 0, 1))) == "Polynomial(-1/2 + 1*x^2)"


def test_from_roots_and_call():
    p = Polynomial.from_roots([(2, 1), (3, 2)])
    assert p.degree == 3 and p.is_monic()
    assert p(2) == 0 and p(3) == 0 and p(0) == -18
    assert p(Fraction(1, 2)) == Fraction(-75, 8)


def test_divmod_exact():
    p = Polynomial.from_roots([(1, 1), (2, 1), (4, 1)])
    d = Polynomial.x_minus(2)
    q, r = p.divmod(d)
    assert r.is_zero()
    assert q == Polynomial.from_roots([(1, 1), (4, 1)])
    assert d.divides(p)
    assert not Polynomial.x_minus(3).divides(p)
    with pytest.raises(ZeroDivisionError):
        p.divmod(Polynomial.zero())


def test_gcd_lcm():
    a = Polynomial.from_roots([(1, 2), (2, 1)])
    b = Polynomial.from_roots([(1, 1), (3, 1)])
    assert poly_gcd(a, b) == Polynomial.x_minus(1)
    assert poly_lcm(a, b) == Polynomial.from_roots([(1, 2), (2, 1), (3, 1)])
    assert poly_lcm(a, Polynomial.zero()).is_zero() and poly_lcm(Polynomial.zero(), b).is_zero()


def test_monic():
    p = Polynomial((2, 4))
    assert p.monic() == Polynomial((Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        Polynomial.zero().monic()


def test_json_serialization():
    p = Polynomial((Fraction(-1, 2), 0, 1))
    assert p.to_json() == ["-1/2", "0", "1"]
