from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphprob import AlgebraElement, Backend, DiagonalElement, parse_word
from graphprob.records import to_json
from graphprob.scalars import ONE, ZERO, Scalar

# Integral values are drawn often: they are the ones stored as int.
rationals = st.one_of(st.integers(-30, 30).map(Fraction), st.fractions(max_denominator=20))
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


def test_parts_are_int_when_integral():
    for s in (Scalar.of(Fraction(6, 3), Fraction(-4, 2)), Scalar(Fraction(2), Fraction(0)), ONE,
              ZERO):
        assert type(s.re) is int and type(s.im) is int
    half = Scalar.of(Fraction(1, 2), True)
    assert (half.re, type(half.re)) == (Fraction(1, 2), Fraction)
    assert (half.im, type(half.im)) == (1, int)
    assert type((half + half).re) is int
    assert Scalar.of(Fraction(1, 3)) * 3 == ONE and type((Scalar.of(Fraction(1, 3)) * 3).re) is int


def test_inexact_numbers_are_rejected(one_loop):
    backend = Backend.axiomatic()
    a = AlgebraElement.generator(one_loop, backend, parse_word(one_loop, "l"))
    d = DiagonalElement.unit(one_loop)
    rejected = (
        lambda: Scalar.of(0.5),
        lambda: Scalar.of(Decimal(1)),
        lambda: Scalar.of(1j),
        lambda: Scalar.of("1/2"),
        lambda: Scalar.of(1, "1/2"),
        lambda: DiagonalElement.make(one_loop, {"v": "1/2"}),
        lambda: Scalar.of(1) * 0.5,
        lambda: 0.5 * Scalar.of(1),
        lambda: Scalar.of(1) * Decimal(1),
        lambda: d * 0.5,
        lambda: 0.5 * d,
        lambda: a.scale(0.5),
        lambda: a * 0.5,
        lambda: Scalar.of(1) + 1,
        lambda: 1 - Scalar.of(1),
        lambda: Scalar.of(1) - Fraction(1, 2),
    )
    for op in rejected:
        with pytest.raises(TypeError):
            op()


def _raw(re, im) -> Scalar:
    """A Scalar holding exactly these parts: an integral Fraction stays a
    Fraction, which the constructor would turn into an int."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "re", re)
    object.__setattr__(s, "im", im)
    return s


# The reference: complex numbers as pairs of Fractions.
def _ref_str(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


_REF_OPS = {
    "+": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "-": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "*": lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    "conjugate": lambda x, y: (x[0], -x[1]),
    "neg": lambda x, y: (-x[0], -x[1]),
}
_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "conjugate": lambda a, b: a.conjugate(),
    "neg": lambda a, b: -a,
}


@given(rationals, rationals, rationals, rationals)
def test_int_parts_agree_with_fraction_parts(a, b, c, d):
    x, y = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))
    with_ints = Scalar.of(*x), Scalar.of(*y)
    with_fractions = _raw(*x), _raw(*y)
    assert with_ints[0] == with_fractions[0] and hash(with_ints[0]) == hash(with_fractions[0])
    for name, ref in _REF_OPS.items():
        want = ref(x, y)
        for s, t in (with_ints, with_fractions):
            got = _OPS[name](s, t)
            assert (got.re, got.im) == want
            for part in (got.re, got.im):
                assert type(part) is (int if part.denominator == 1 else Fraction)
            assert str(got) == _ref_str(*want)
            assert to_json(got) == {
                key: f"{v.numerator}/{v.denominator}" for key, v in zip(("re", "im"), want)
            }
            assert got == _raw(*want) and hash(got) == hash(_raw(*want))


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
    assert to_json(Scalar.of(-3)) == {"re": "-3/1", "im": "0/1"}


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
