"""Exact complex scalars with rational real and imaginary parts.

A part is an ``int`` when it is integral and a ``fractions.Fraction`` only
otherwise, so the integer coefficients of the usual laws (Catalan numbers,
central binomials, their signed sums) cost int arithmetic.  Python's
numeric tower mixes the two exactly, and an integral ``Fraction`` equals
and hashes as its ``int``.  ``fractions`` is imported only where a
non-integral value is born, so a command on integer coefficients never
loads it (or ``decimal``, which it imports).
"""

from __future__ import annotations

from numbers import Rational

from .records import Record, num_den


def _rational(x) -> Rational:
    """``x`` as an exact rational: a str is parsed as ``Fraction(x)`` parses
    it, and floats, ``Decimal`` and complex numbers are rejected."""
    if isinstance(x, str):
        from fractions import Fraction

        return Fraction(x)
    if isinstance(x, Rational):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


class Scalar(Record):
    """A complex number re + im*i with exact rational parts.

    Each part is an int when integral and a Fraction otherwise; the
    constructor turns an integral Fraction into its int.  Equality is
    exact; there is no tolerance anywhere in the package.  Its JSON form
    is ``{"re": "num/den", "im": "num/den"}``, its fields.
    """

    re: Rational
    im: Rational

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if re.__class__ is not int and re.denominator == 1:
            re = re.numerator
        if im.__class__ is not int and im.denominator == 1:
            im = im.numerator
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(re, im=0) -> "Scalar":
        """The scalar re + im*i from exact rationals or their strings; a
        Scalar ``re`` with no ``im`` is returned unchanged."""
        if isinstance(re, Scalar) and im == 0:
            return re
        return Scalar(_rational(re), _rational(im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.im and not other.im:
            return Scalar(self.re + other.re)
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.im and not other.im:
            return Scalar(self.re - other.re)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if not self.im and not other.im:
                return Scalar(self.re * other.re)
            return Scalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, Rational):
            return Scalar(self.re * other, self.im * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return Scalar(self.re * other, self.im * other)
        return NotImplemented

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def json_form(self) -> dict:
        return {"re": num_den(self.re), "im": num_den(self.im)}

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


ZERO = Scalar()
ONE = Scalar(1)
