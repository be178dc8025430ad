"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

from fractions import Fraction

from .records import Record

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Scalar(Record):
    """A complex number re + im*i with exact rational parts.

    Equality is exact; there is no tolerance anywhere in the package.
    Its JSON form is ``{"re": "num/den", "im": "num/den"}``, its fields.
    """

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    def __init__(self, re: Fraction = _ZERO, im: Fraction = _ZERO):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        self.__post_init__()

    @staticmethod
    def of(re, im=0) -> "Scalar":
        return Scalar(_frac(re), _frac(im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        return NotImplemented

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
