from fractions import Fraction

import pytest

from spinnets.cli import _write
from spinnets.errors import InputError
from spinnets.polyring import MPoly, Namespace
from spinnets.rational import (QQi, denominator, div_exact, format_exact, narrow,
                               parse_exact)


def test_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(3))
    b = QQi(2, Fraction(-1, 3))
    assert a + b == QQi(Fraction(5, 2), Fraction(8, 3))
    assert a * b == QQi(Fraction(1, 2) * 2 - 3 * Fraction(-1, 3),
                        Fraction(1, 2) * Fraction(-1, 3) + 3 * 2)
    assert -a + a == QQi(0)
    assert not QQi(0)
    assert a.conjugate().im == -3


def test_division_and_norm():
    a = QQi(1, 2)
    assert a.norm2() == 5
    assert a / a == QQi(1)
    with pytest.raises(ZeroDivisionError):
        a / QQi(0)
    # a real divisor divides both parts; an int or Fraction dividend divides on QQi
    assert a / 3 == a / QQi(3) == QQi(Fraction(1, 3), Fraction(2, 3))
    assert 1 / a == Fraction(1, 2) / QQi(Fraction(1, 2), 1) == QQi(Fraction(1, 5), Fraction(-2, 5))
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_div_exact_keeps_ring():
    cases = [
        ((6, 3), 2, int),
        ((-7, 2), Fraction(-7, 2), Fraction),
        ((Fraction(3, 2), Fraction(1, 2)), 3, int),
        ((Fraction(1, 2), 3), Fraction(1, 6), Fraction),
        ((4, Fraction(2, 3)), 6, int),
        ((QQi(2), 2), QQi(1), QQi),
        ((2, QQi(0, 1)), QQi(0, -2), QQi),
        ((Fraction(1, 2), QQi(1, 1)), QQi(Fraction(1, 4), Fraction(-1, 4)), QQi),
    ]
    for (a, b), value, ring in cases:
        got = div_exact(a, b)
        assert got == value and type(got) is ring, (a, b, got)
    for zero in (0, Fraction(0), QQi(0)):
        with pytest.raises(ZeroDivisionError):
            div_exact(1, zero)


@pytest.mark.parametrize("text,expect", [
    ("3", QQi(3)),
    ("-5/7", QQi(Fraction(-5, 7))),
    ("2/3 i", QQi(0, Fraction(2, 3))),
    ("1/2+1/3 i", QQi(Fraction(1, 2), Fraction(1, 3))),
    ("-1/2-2 i", QQi(Fraction(-1, 2), -2)),
])
def test_parse_exact(text, expect):
    assert parse_exact(text) == expect


def test_parse_rejects_floats_and_junk():
    for text in ("0.5", "i+1", "1/0", "2/0 i", "1/2+3/0 i", "1/0+1 i"):
        with pytest.raises(InputError):
            parse_exact(text)


def _parts_exact(z):
    return type(z.re) in (int, Fraction) and type(z.im) in (int, Fraction)


def test_int_parts_division_never_floats():
    """Gaussian integers keep int parts; no division yields a float part."""
    a, b = QQi(3, -4), QQi(1, 2)
    assert type(a.re) is int and type(a.im) is int
    for got, value in (
        (a / 2, QQi(Fraction(3, 2), -2)),
        (a / 1, a),
        (a / Fraction(1, 2), QQi(6, -8)),
        (a / Fraction(2, 3), QQi(Fraction(9, 2), -6)),
        (a / b, QQi(-1, -2)),
        (a / QQi(2, 0), QQi(Fraction(3, 2), -2)),
        (5 / b, QQi(1, -2)),
        (1 / a, QQi(Fraction(3, 25), Fraction(4, 25))),
        (Fraction(1, 2) / b, QQi(Fraction(1, 10), Fraction(-1, 5))),
        (div_exact(a, 2), QQi(Fraction(3, 2), -2)),
        (div_exact(a, b), QQi(-1, -2)),
        (div_exact(4, QQi(0, 2)), QQi(0, -2)),
    ):
        assert type(got) is QQi and _parts_exact(got) and got == value, (got, value)
    # an integral quotient of int parts stays int
    for got in (a / 1, a / b, 5 / b, div_exact(4, QQi(0, 2)), QQi(6, 8) / 2):
        assert type(got.re) is int and type(got.im) is int, got


def _report_text(p: MPoly) -> str:
    """The text a report gives for p."""
    parts = []
    _write(p, parts.append, "\n")
    return "".join(parts)


def test_int_and_fraction_parts_agree():
    pairs = [(QQi(3, -4), QQi(Fraction(3), Fraction(-4))),
             (QQi(0, 1), QQi(Fraction(0), Fraction(1))),
             (QQi(7), QQi(Fraction(7))),
             (QQi(0), QQi(Fraction(0)))]
    ns = Namespace(("x",))
    for i, f in pairs:
        assert type(i.re) is int and type(f.re) is Fraction
        assert i == f and hash(i) == hash(f)
        assert format_exact(i) == format_exact(f)
        assert repr(i) == repr(f)
        assert _report_text(MPoly.var(ns, "x", i)) == _report_text(MPoly.var(ns, "x", f))
    assert (_report_text(MPoly.var(ns, "x", 7)) == _report_text(MPoly.var(ns, "x", Fraction(7)))
            == '[\n  {\n    "exponents": {\n      "x": 1\n    },\n    "im": "0",\n'
               '    "re": "7"\n  }\n]')
    assert QQi(7) == 7 == QQi(Fraction(7)) and hash(QQi(7)) == hash(7)
    assert {QQi(2, 1): "a"}[QQi(Fraction(2), Fraction(1))] == "a"


def test_narrow():
    assert narrow(QQi(Fraction(5), 0)) == 5 and type(narrow(QQi(Fraction(5)))) is int
    z = narrow(QQi(Fraction(4, 2), Fraction(-3)))
    assert type(z) is QQi and type(z.re) is int and type(z.im) is int and z == QQi(2, -3)
    z = narrow(QQi(Fraction(1, 2), Fraction(3)))
    assert z == QQi(Fraction(1, 2), 3) and type(z.re) is Fraction and type(z.im) is int


def test_denominator():
    assert denominator(3) == 1 and denominator(Fraction(3, 4)) == 4
    assert denominator(QQi(Fraction(1, 4), Fraction(5, 6))) == 12
    assert denominator(QQi(2, -1)) == 1


def test_format_round_trip():
    z = QQi(Fraction(22, 7), Fraction(-3, 11))
    obj = format_exact(z)
    assert obj == {"re": "22/7", "im": "-3/11"}
    sign = "" if z.im < 0 else "+"
    assert parse_exact(f"{obj['re']}{sign}{obj['im']} i") == z
