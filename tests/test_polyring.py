from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_det, naive_edge_operator
from spinnets.errors import InputError, PreconditionError
from spinnets.polyring import (MPoly, Namespace, TruncSeries, apply_edge_operator,
                               det_poly, exact_div, inv_sqrt_series, inverse_series,
                               power_series)
from spinnets.rational import QQi

NS3 = Namespace(("x", "y", "z"))
NS4 = Namespace(("z1", "w1", "z2", "w2"))


def poly(ns, *terms):
    p = MPoly.zero(ns)
    for exps, c in terms:
        p = p + MPoly.monomial(ns, exps, c)
    return p


@st.composite
def small_polys(draw):
    n = draw(st.integers(0, 5))
    p = MPoly.zero(NS3)
    for _ in range(n):
        exps = {v: draw(st.integers(0, 3)) for v in "xyz"}
        c = QQi(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
                Fraction(draw(st.integers(-2, 2))))
        p = p + MPoly.monomial(NS3, exps, c)
    return p


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == MPoly.zero(NS3)


def test_basic_identities():
    x = MPoly.var(NS3, "x")
    y = MPoly.var(NS3, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).substitute_sign_flip(["x"]) == -(x * y)
    assert (x * y).substitute_sign_flip(["x", "y"]) == x * y


def test_pow_keeps_ring_and_exponent_bound():
    x = MPoly.var(NS3, "x")
    assert x.pow(63).coefficient({"x": 63}) == QQi(1)
    with pytest.raises(InputError):
        x.pow(64)  # would alias onto y
    with pytest.raises(InputError):
        (x * x + MPoly.var(NS3, "y")).pow(32)
    cube = MPoly(NS3, {NS3.encode({"x": 1}): 2, NS3.encode({"y": 1}): -1}).pow(3)
    assert all(type(c) is int for c in cube.terms.values())
    assert cube == (MPoly.var(NS3, "x", 2) - MPoly.var(NS3, "y")).pow(3)


def test_namespace_mismatch():
    with pytest.raises(InputError):
        MPoly.var(NS3, "x") + MPoly.var(NS4, "z1")


def test_serialization_round_trip():
    p = poly(NS3, ({"x": 2}, QQi(Fraction(1, 3), 2)), ({"y": 1, "z": 4}, QQi(-5)))
    assert MPoly.from_obj(NS3, p.to_obj()) == p


# -- edge operator ----------------------------------------------------------

def bracket(a, b, c, d):
    # z_a w_b - z_c w_d style products on NS4
    return poly(NS4, ({a: 1, b: 1}, QQi(1)), ({c: 1, d: 1}, QQi(-1)))


def test_edge_operator_degree_one():
    p = poly(NS4, ({"z1": 1, "w2": 1}, QQi(1)))
    assert apply_edge_operator(p, "z1", "w1", "z2", "w2", 1) == MPoly.const(NS4, 1)
    q = poly(NS4, ({"z2": 1, "w1": 1}, QQi(1)))
    assert apply_edge_operator(q, "z1", "w1", "z2", "w2", 1) == MPoly.const(NS4, -1)


def test_edge_operator_omega2_self_contraction():
    # contraction of (z1 w2 - z2 w1)^2 is 3, frozen from the naive oracle
    w2 = bracket("z1", "w2", "z2", "w1").pow(2)
    got = apply_edge_operator(w2, "z1", "w1", "z2", "w2", 2)
    assert got == MPoly.const(NS4, 3)
    assert naive_edge_operator(w2, "z1", "w1", "z2", "w2", 2) == got


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), st.data())
def test_edge_operator_matches_naive(c, nterms, data):
    p = MPoly.zero(NS4)
    for _ in range(nterms):
        exps = {v: data.draw(st.integers(0, 3)) for v in NS4.names}
        p = p + MPoly.monomial(NS4, exps, QQi(data.draw(st.integers(-3, 3))))
    fast = apply_edge_operator(p, "z1", "w1", "z2", "w2", c)
    assert fast == naive_edge_operator(p, "z1", "w1", "z2", "w2", c)


def test_edge_operator_int_coefficients():
    # int input stays int where c! divides the weighted sum, else Fraction
    square = MPoly(NS4, {NS4.encode({"z1": 2, "w2": 2}): 3})
    mixed = square + MPoly(NS4, {NS4.encode({"z1": 1, "w1": 1, "z2": 1, "w2": 1}): 1})
    for p, value in ((square, 3), (mixed, Fraction(5, 2))):
        got = apply_edge_operator(p, "z1", "w1", "z2", "w2", 2)
        assert got == naive_edge_operator(p, "z1", "w1", "z2", "w2", 2)
        assert got.constant_term() == value
        assert type(got.constant_term()) is type(value)


# -- inverse square root ----------------------------------------------------

def test_inv_sqrt_trivial():
    assert inv_sqrt_series(MPoly.const(NS3, 1), 5).poly == MPoly.const(NS3, 1)


def test_inv_sqrt_binomial():
    u = MPoly.var(NS3, "x")
    s = inv_sqrt_series(MPoly.const(NS3, 1) + u, 2)
    expect = (MPoly.const(NS3, 1) + u.scalar_mul(Fraction(-1, 2))
              + (u * u).scalar_mul(Fraction(3, 8)))
    assert s.poly == expect


def test_inv_sqrt_perfect_power():
    # (1+u)^4 inverts to the integral coefficients of (1+u)^(-2)
    u = MPoly.var(NS3, "x")
    d = (MPoly.const(NS3, 1) + u).pow(4)
    s = inv_sqrt_series(d, 6)
    for k in range(7):
        assert s.poly.coefficient({"x": k}) == QQi((k + 1) * (-1) ** k)
    # defining identity s^2 d = 1 mod degree > 6
    sq = s * s * TruncSeries(d, 6)
    assert sq.poly == MPoly.const(NS3, 1)


@settings(max_examples=20, deadline=None)
@given(small_polys(), st.integers(1, 5))
def test_inv_sqrt_defining_identity(p, degree):
    d = MPoly.const(NS3, 1) + (p * p).truncated(degree)  # constant term 1
    d = MPoly(NS3, {k: c for k, c in d.terms.items()}) - MPoly.monomial(
        NS3, {}, d.constant_term()) + MPoly.const(NS3, 1)
    s = inv_sqrt_series(d, degree)
    assert (s * s * TruncSeries(d, degree)).poly == MPoly.const(NS3, 1)


def test_inv_sqrt_requires_unit_constant():
    with pytest.raises(PreconditionError):
        inv_sqrt_series(MPoly.const(NS3, 2), 3)
    with pytest.raises(PreconditionError):
        inverse_series(MPoly.const(NS3, 2), 3)
    # a constant term would keep u^k from ever vanishing
    with pytest.raises(PreconditionError):
        power_series(MPoly.const(NS3, 1) + MPoly.var(NS3, "x"), 3, lambda k: 1)


def test_inverse_series():
    p = MPoly.const(NS3, 1) + MPoly.var(NS3, "x")
    inv = inverse_series(p, 4)
    assert (inv * TruncSeries(p, 4)).poly == MPoly.const(NS3, 1)


# -- determinants -----------------------------------------------------------

def test_det_2x2_and_identity():
    a, b, c = (MPoly.var(NS3, v) for v in ("x", "y", "z"))
    d = MPoly.const(NS3, 2)
    m = [[a, b], [c, d]]
    assert det_poly(m) == a * d - b * c
    eye = [[MPoly.const(NS3, 1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert det_poly(eye) == MPoly.const(NS3, 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.data())
def test_det_matches_cofactor(n, data):
    m = [[MPoly.monomial(NS3, {v: data.draw(st.integers(0, 1)) for v in "xy"},
                         QQi(data.draw(st.integers(-2, 2))))
          for _ in range(n)] for _ in range(n)]
    assert det_poly(m) == naive_det(m)


def test_exact_div():
    x, y = MPoly.var(NS3, "x"), MPoly.var(NS3, "y")
    num = (x + y) * (x - y) * (x + y)
    assert exact_div(num, x + y) == (x - y) * (x + y)
    with pytest.raises(InputError):
        exact_div(x * x + y, x + y)
