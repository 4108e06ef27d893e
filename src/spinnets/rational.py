"""Exact Gaussian-rational scalars a + b*i with rational a, b."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class QQi:
    """Complex number with exact `Fraction` real and imaginary parts.

    Immutable value type; arithmetic is exact, equality is bit-for-bit.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:
            return QQi(self.re * other, self.im * other)
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return QQi(a * c, _ZERO)
        return QQi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re / other, self.im / other)
        other = _coerce(other)
        n2 = other.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero QQi")
        conj = other.conjugate()
        num = self * conj
        return QQi(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self):
        return QQi(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2, an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


ONE = QQi(1)
I = QQi(0, 1)


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


def narrow(x):
    """x as an int when it is a real integer, else as a QQi."""
    x = x if isinstance(x, QQi) else QQi(x)
    if not x.im and x.re.denominator == 1:
        return x.re.numerator
    return x


def div_exact(a, b):
    """a / b without leaving the rings of a and b: an int when int or
    Fraction operands give an integer, a Fraction when they give another
    rational, a QQi when either operand is a QQi."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if isinstance(a, QQi) or isinstance(b, QQi):
        return a / b
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def ipow(n: int) -> QQi:
    """i**n for any integer n."""
    return (ONE, I, QQi(-1), QQi(0, -1))[n % 4]


_FRAC = r"[+-]?\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"^\s*({_FRAC})\s*$")
_RE_IMAG = re.compile(rf"^\s*({_FRAC})\s*\*?\s*i\s*$")
_RE_BOTH = re.compile(rf"^\s*({_FRAC})\s*([+-]\s*\d+(?:/\d+)?)\s*\*?\s*i\s*$")


def parse_exact(s) -> QQi:
    """Parse an exact scalar: int, "p/q", "r/s i", or "p/q+r/s i"."""
    if isinstance(s, QQi):
        return s
    if isinstance(s, int):
        return QQi(s)
    if isinstance(s, Fraction):
        return QQi(s)
    if not isinstance(s, str):
        raise InputError(f"not an exact scalar: {s!r}")
    m = _RE_REAL.match(s)
    if m:
        return QQi(Fraction(m.group(1)))
    m = _RE_IMAG.match(s)
    if m:
        return QQi(0, Fraction(m.group(1)))
    m = _RE_BOTH.match(s)
    if m:
        return QQi(Fraction(m.group(1)), Fraction(m.group(2).replace(" ", "")))
    raise InputError(f"cannot parse exact scalar {s!r}")


def format_exact(z) -> dict:
    """Serialize a QQi (or Fraction) as {"re": "p/q", "im": "p/q"}."""
    z = _coerce(z) if not isinstance(z, QQi) else z
    return {"re": str(z.re), "im": str(z.im)}
