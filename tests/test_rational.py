from fractions import Fraction

import pytest

from spinnets.errors import InputError
from spinnets.rational import QQi, div_exact, format_exact, ipow, parse_exact


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


def test_ipow():
    assert [ipow(n) for n in range(4)] == [QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1)]
    assert ipow(-1) == QQi(0, -1)


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
    with pytest.raises(InputError):
        parse_exact("0.5")
    with pytest.raises(InputError):
        parse_exact("i+1")


def test_format_round_trip():
    z = QQi(Fraction(22, 7), Fraction(-3, 11))
    obj = format_exact(z)
    assert obj == {"re": "22/7", "im": "-3/11"}
    sign = "" if z.im < 0 else "+"
    assert parse_exact(f"{obj['re']}{sign}{obj['im']} i") == z
