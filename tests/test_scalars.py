from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from graphprob.records import to_json
from graphprob.scalars import ONE, ZERO, Scalar

rationals = st.fractions(max_denominator=20)
scalars = st.builds(Scalar, rationals, rationals)


def test_construction_and_zero():
    assert Scalar.of(0).is_zero
    assert not Scalar.of(0, 1).is_zero
    assert ZERO.is_zero and not ONE.is_zero
    assert Scalar.of(Fraction(1, 2)).re == Fraction(1, 2)


def test_exact_arithmetic():
    third = Scalar.of(Fraction(1, 3))
    assert third + third + third == ONE
    assert Scalar.of(1, 1) * Scalar.of(1, -1) == Scalar.of(2)
    assert Scalar.of(0, 1) * Scalar.of(0, 1) == Scalar.of(-1)


def test_scalar_int_and_fraction_mul():
    s = Scalar.of(Fraction(1, 2), 1)
    assert s * 2 == Scalar.of(1, 2)
    assert 2 * s == Scalar.of(1, 2)
    assert s * Fraction(1, 2) == Scalar.of(Fraction(1, 4), Fraction(1, 2))


def test_str_forms():
    assert str(Scalar.of(2)) == "2"
    assert str(Scalar.of(Fraction(1, 2))) == "1/2"
    assert str(Scalar.of(0, 2)) == "2i"
    assert str(Scalar.of(1, 2)) == "(1+2i)"
    assert str(Scalar.of(1, -2)) == "(1-2i)"
    assert str(ZERO) == "0"


def test_json_form():
    s = Scalar.of(Fraction(-7, 3), Fraction(2, 5))
    assert to_json(s) == {"re": "-7/3", "im": "2/5"}


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars)
def test_negation(a):
    assert a + (-a) == ZERO
    assert a - a == ZERO
