"""Exact Gaussian-rational scalars a + b*i with rational a, b."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import InputError


class QQi:
    """Complex number with exact rational real and imaginary parts.

    Each part is an int or a Fraction.  Parts built from ints stay ints, so
    Gaussian-integer arithmetic runs on int alone; every division goes
    through `div_exact`, so none yields a float.  Immutable value type;
    arithmetic is exact, and equality, hash and printed form do not depend on
    whether a part is held as an int or as a Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) in _PARTS else Fraction(re))
        object.__setattr__(self, "im", im if type(im) in _PARTS else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        if type(other) is not QQi:
            other = _coerce(other)
        return _qqi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QQi:
            other = _coerce(other)
        return _qqi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _qqi(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not QQi:
            if isinstance(other, (int, Fraction)):
                return _qqi(self.re * other, self.im * other)
            other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _qqi(a * c, 0)
        return _qqi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QQi):
            other = _coerce(other)
            if not other.im:
                return _qqi(div_exact(self.re, other.re), div_exact(self.im, other.re))
        n2 = other.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero QQi")
        num = self * other.conjugate()
        return _qqi(div_exact(num.re, n2), div_exact(num.im, n2))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self):
        return _qqi(self.re, -self.im)

    def norm2(self):
        """|z|^2, an exact non-negative rational (an int for a Gaussian
        integer)."""
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


_PARTS = (int, Fraction)
_new = object.__new__
_set_re, _set_im = QQi.re.__set__, QQi.im.__set__


def _qqi(re, im):
    """QQi(re, im) for parts already int or Fraction, skipping the checks
    of the constructor (the arithmetic's results)."""
    z = _new(QQi)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


def _narrow_part(q):
    return q.numerator if q.denominator == 1 else q


def narrow(x):
    """x as an int when it is a real integer, else as a QQi whose integral
    parts are ints (so a Gaussian integer has int parts)."""
    x = x if isinstance(x, QQi) else QQi(x)
    re, im = _narrow_part(x.re), _narrow_part(x.im)
    if not im and type(re) is int:
        return re
    return _qqi(re, im)


def denominator(x) -> int:
    """The least positive d with d * x a Gaussian integer, for an int,
    Fraction or QQi x."""
    if isinstance(x, QQi):
        return lcm(x.re.denominator, x.im.denominator)
    return x.denominator


def div_exact(a, b):
    """a / b without leaving the rings of a and b: an int when int or
    Fraction operands give an integer, a Fraction when they give another
    rational, a QQi when either operand is a QQi (its parts chosen the same
    way)."""
    if type(b) is int:
        if type(a) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        if type(a) is QQi:  # QQi / int, part by part, as QQi.__truediv__ does
            return _qqi(div_exact(a.re, b), div_exact(a.im, b))
    if isinstance(a, QQi) or isinstance(b, QQi):
        return _coerce(a) / b
    return _narrow_part(Fraction(a) / b)


_FRAC = r"[+-]?\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"^\s*({_FRAC})\s*$")
_RE_IMAG = re.compile(rf"^\s*({_FRAC})\s*\*?\s*i\s*$")
_RE_BOTH = re.compile(rf"^\s*({_FRAC})\s*([+-]\s*\d+(?:/\d+)?)\s*\*?\s*i\s*$")


def _fraction(text, s) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in exact scalar {s!r}") from None
    except ValueError as exc:  # the regex admits the text: it has too many digits
        raise InputError(f"exact scalar of {len(s)} characters: {exc}") from None


def parse_exact(s) -> QQi:
    """Parse an exact scalar: int, "p/q", "r/s i", or "p/q+r/s i"; a zero
    denominator is an InputError."""
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
        return QQi(_fraction(m.group(1), s))
    m = _RE_IMAG.match(s)
    if m:
        return QQi(0, _fraction(m.group(1), s))
    m = _RE_BOTH.match(s)
    if m:
        return QQi(_fraction(m.group(1), s), _fraction(m.group(2).replace(" ", ""), s))
    raise InputError(f"cannot parse exact scalar {s!r}")


def format_exact(z) -> dict:
    """Serialize a QQi (or Fraction) as {"re": "p/q", "im": "p/q"}."""
    z = _coerce(z) if not isinstance(z, QQi) else z
    return {"re": str(z.re), "im": str(z.im)}
