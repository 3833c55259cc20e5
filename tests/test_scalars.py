from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upblab.scalars import ComplexRational, complex_sqrt, rational_sqrt

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(ComplexRational, rationals, rationals)


def test_construction_and_fields():
    z = ComplexRational(Fraction(3, 6), Fraction(-2, 4))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-1, 2)
    assert z.t == (1, -1, 2)


def test_lowest_terms_after_arithmetic():
    z = ComplexRational(Fraction(1, 2), Fraction(1, 3)) * 6
    assert z.t == (3, 2, 1)
    w = ComplexRational(2, 4) / ComplexRational(4, 8)
    assert w.t == (1, 0, 2)  # (2+4i)/(4+8i) = 1/2


def test_division_and_inverse():
    z = ComplexRational(Fraction(2, 3), Fraction(-1, 5))
    assert (z / z) == 1
    assert z * (1 / z) == 1


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_conjugation_involution_and_abs2(z):
    assert z.conjugate().conjugate() == z
    n2 = z.abs2()
    assert n2 >= 0
    assert z * z.conjugate() == ComplexRational(n2)


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_division_roundtrip(z):
    if not z.is_zero():
        w = ComplexRational(Fraction(7, 3), Fraction(-2, 9))
        assert (w / z) * z == w


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        ComplexRational(1) / ComplexRational(0)


def test_hash_consistency_with_fraction():
    assert hash(ComplexRational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert ComplexRational(2) == 2


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_complex_sqrt_exact_cases():
    z = ComplexRational(0, 2)  # sqrt(2i) = 1 + i
    w = complex_sqrt(z)
    assert w is not None and w * w == z
    z2 = ComplexRational(Fraction(-9, 4))
    w2 = complex_sqrt(z2)
    assert w2 is not None and w2 * w2 == z2
    assert complex_sqrt(ComplexRational(2)) is None


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_complex_sqrt_of_squares(z):
    w = complex_sqrt(z * z)
    assert w is not None
    assert w == z or w == -z

