from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_det, naive_edge_operator
from spinnets.errors import InputError, PreconditionError
from spinnets.polyring import (MPoly, Namespace, apply_edge_operator, det_poly, exact_div,
                               inv_sqrt_series, inverse_series)
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
    # an absent monomial reads as the int 0, in whatever ring the terms are
    for p in (x, x.scalar_mul(QQi(0, 1))):
        assert type(p.constant_term()) is int and type(p.coefficient({"y": 1})) is int


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


def test_products_keep_exponent_bound():
    ns = Namespace(("x", "y"))
    x40 = MPoly.var(ns, "x").pow(40)
    with pytest.raises(InputError):
        x40 * x40  # x^80 would alias onto x^16*y
    with pytest.raises(InputError):
        x40.mul_trunc(x40, 100)
    assert x40.mul_trunc(x40, 63).is_zero()
    # exponents of 32 and more on both sides, sums still within the bound
    x31y32 = MPoly.monomial(ns, {"x": 31, "y": 32}, 1)
    y31 = MPoly.monomial(ns, {"y": 31}, 3)
    assert x31y32 * y31 == MPoly.monomial(ns, {"x": 31, "y": 63}, 3)
    assert x31y32.mul_trunc(y31, 100) == x31y32 * y31


def test_namespace_mismatch():
    with pytest.raises(InputError):
        MPoly.var(NS3, "x") + MPoly.var(NS4, "z1")


# -- edge operator ----------------------------------------------------------

def bracket(a, b, c, d):
    # z_a w_b - z_c w_d style products on NS4
    return poly(NS4, ({a: 1, b: 1}, QQi(1)), ({c: 1, d: 1}, QQi(-1)))


def test_edge_operator_degree_one():
    p = poly(NS4, ({"z1": 1, "w2": 1}, QQi(1)))
    assert apply_edge_operator([p], "z1", "w1", "z2", "w2", 1) == MPoly.const(NS4, 1)
    q = poly(NS4, ({"z2": 1, "w1": 1}, QQi(1)))
    assert apply_edge_operator([q], "z1", "w1", "z2", "w2", 1) == MPoly.const(NS4, -1)


def test_edge_operator_omega2_self_contraction():
    # contraction of (z1 w2 - z2 w1)^2 is 3, frozen from the naive oracle;
    # apply_edge_operator gives 2! times it
    w2 = bracket("z1", "w2", "z2", "w1").pow(2)
    got = apply_edge_operator([w2], "z1", "w1", "z2", "w2", 2)
    assert got == MPoly.const(NS4, 3 * 2)
    assert naive_edge_operator(w2, "z1", "w1", "z2", "w2", 2).scalar_mul(factorial(2)) == got


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), st.data())
def test_edge_operator_matches_naive(c, nterms, data):
    p = MPoly.zero(NS4)
    for _ in range(nterms):
        exps = {v: data.draw(st.integers(0, 3)) for v in NS4.names}
        p = p + MPoly.monomial(NS4, exps, QQi(data.draw(st.integers(-3, 3))))
    fast = apply_edge_operator([p], "z1", "w1", "z2", "w2", c)
    assert fast == naive_edge_operator(p, "z1", "w1", "z2", "w2", c).scalar_mul(factorial(c))


NS6 = Namespace(("z1", "w1", "z2", "w2", "x", "y"))
EDGE = ("z1", "w1", "z2", "w2")
RINGS = {
    "int": st.integers(-4, 4),
    "fraction": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
    "gaussian": st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3)),
}
EDGE_EXPS = st.tuples(*[st.integers(0, 3)] * 4)


@st.composite
def contraction_operands(draw, coeffs, c):
    """p and q on NS6; about half of q's terms complete the edge part of a
    term of p towards a surviving pattern (c - a2, a2, a2, c - a2), and every
    term of p and of q carries a drawn extra power of x, so that their
    product may pass MAX_EXPONENT."""
    p_edges = draw(st.lists(EDGE_EXPS, max_size=6))
    q_edges = []
    for _ in range(draw(st.integers(0, 6))):
        if p_edges and draw(st.booleans()):
            a2 = draw(st.integers(0, c))
            pattern = (c - a2, a2, a2, c - a2)
            q_edges.append(tuple(max(0, t - e) for t, e in
                                 zip(pattern, draw(st.sampled_from(p_edges)))))
        else:
            q_edges.append(draw(EDGE_EXPS))

    def operand(edges):
        high = draw(st.sampled_from((0, 30, 40)))
        terms = {}
        for edge in edges:
            exps = dict(zip(EDGE, edge), x=high + draw(st.integers(0, 3)),
                        y=draw(st.integers(0, 3)))
            if coeff := draw(coeffs):
                terms[NS6.encode(exps)] = coeff
        return MPoly(NS6, terms)

    return operand(p_edges), operand(q_edges)


@settings(max_examples=80, deadline=None)
@given(ring=st.sampled_from(sorted(RINGS)), c=st.integers(0, 4), data=st.data())
def test_edge_operator_contracts_a_product(ring, c, data):
    """apply_edge_operator([p, q], ...) is the contraction of p * q, in the
    same ring, and refuses a product past MAX_EXPONENT the way p * q does."""
    p, q = data.draw(contraction_operands(RINGS[ring], c))
    try:
        expect = apply_edge_operator([p * q], *EDGE, c)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            apply_edge_operator([p, q], *EDGE, c)
        assert str(got.value) == str(exc)
        return
    got = apply_edge_operator([p, q], *EDGE, c)
    assert got == expect
    assert {k: type(v) for k, v in got.terms.items()} == \
        {k: type(v) for k, v in expect.terms.items()}


def test_edge_operator_int_coefficients():
    # int input stays int: the weights are integers and nothing is divided
    square = MPoly(NS4, {NS4.encode({"z1": 2, "w2": 2}): 3})
    mixed = square + MPoly(NS4, {NS4.encode({"z1": 1, "w1": 1, "z2": 1, "w2": 1}): 1})
    for p, value in ((square, 6), (mixed, 5)):
        got = apply_edge_operator([p], "z1", "w1", "z2", "w2", 2)
        assert got == naive_edge_operator(p, "z1", "w1", "z2", "w2", 2).scalar_mul(factorial(2))
        assert got.constant_term() == value
        assert type(got.constant_term()) is type(value)


# -- inverse square root ----------------------------------------------------

def test_inv_sqrt_trivial():
    assert inv_sqrt_series(MPoly.const(NS3, 1), 5) == MPoly.const(NS3, 1)


def test_inv_sqrt_binomial():
    u = MPoly.var(NS3, "x")
    s = inv_sqrt_series(MPoly.const(NS3, 1) + u, 2)
    expect = (MPoly.const(NS3, 1) + u.scalar_mul(Fraction(-1, 2))
              + (u * u).scalar_mul(Fraction(3, 8)))
    assert s == expect


def test_inv_sqrt_perfect_power():
    # (1+u)^4 inverts to the integral coefficients of (1+u)^(-2)
    u = MPoly.var(NS3, "x")
    d = (MPoly.const(NS3, 1) + u).pow(4)
    s = inv_sqrt_series(d, 6)
    for k in range(7):
        assert s.coefficient({"x": k}) == QQi((k + 1) * (-1) ** k)
    # defining identity s^2 d = 1 mod degree > 6
    assert s.mul_trunc(s, 6).mul_trunc(d, 6) == MPoly.const(NS3, 1)


@settings(max_examples=20, deadline=None)
@given(small_polys(), st.integers(1, 5))
def test_inv_sqrt_defining_identity(p, degree):
    d = MPoly.const(NS3, 1) + (p * p).truncated(degree)  # constant term 1
    d = MPoly(NS3, {k: c for k, c in d.terms.items()}) - MPoly.monomial(
        NS3, {}, d.constant_term()) + MPoly.const(NS3, 1)
    s = inv_sqrt_series(d, degree)
    assert s.mul_trunc(s, degree).mul_trunc(d, degree) == MPoly.const(NS3, 1)


def test_inv_sqrt_requires_unit_constant():
    with pytest.raises(PreconditionError):
        inv_sqrt_series(MPoly.const(NS3, 2), 3)
    with pytest.raises(PreconditionError):
        inverse_series(MPoly.const(NS3, 2), 3)


def test_inverse_series():
    p = MPoly.const(NS3, 1) + MPoly.var(NS3, "x")
    inv = inverse_series(p, 4)
    assert inv.mul_trunc(p, 4) == MPoly.const(NS3, 1)


_COEFFS = {
    "int": st.integers(-3, 3),
    "Fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    "Gaussian integer": st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3)),
}


@st.composite
def unit_constant_polys(draw):
    """d = 1 + u on 2 or 3 variables, u without a constant term, with int,
    Fraction or Gaussian-integer coefficients."""
    ns = draw(st.sampled_from((Namespace(("x", "y")), NS3)))
    coeff = _COEFFS[draw(st.sampled_from(sorted(_COEFFS)))]
    d = MPoly.const(ns, 1)
    for _ in range(draw(st.integers(0, 5))):
        exps = {v: draw(st.integers(0, 2)) for v in ns.names}
        if any(exps.values()):
            d = d + MPoly.monomial(ns, exps, draw(coeff))
    return d


def _power_sum(u, degree, coeff):
    """sum_{k=0..degree} coeff(k) u^k, truncated: u^k has no monomial of
    degree below k."""
    total = uk = MPoly.const(u.ns, 1)
    for k in range(1, degree + 1):
        uk = uk.mul_trunc(u, degree)
        total = total + uk.scalar_mul(coeff(k))
    return total


@settings(max_examples=60, deadline=None)
@given(unit_constant_polys(), st.integers(0, 8))
def test_series_kernel_inverse_and_inverse_sqrt(d, degree):
    """Both series solve their defining identity and equal the geometric
    series sum (-u)^k and the binomial series sum C(2k, k) (-u/4)^k."""
    one = MPoly.const(d.ns, 1)
    u = d - one
    inv = inverse_series(d, degree)
    s = inv_sqrt_series(d, degree)
    assert inv.mul_trunc(d, degree) == one
    assert s.mul_trunc(s, degree).mul_trunc(d, degree) == one
    assert inv == _power_sum(u, degree, lambda k: (-1) ** k)
    assert s == _power_sum(u, degree, lambda k: Fraction(comb(2 * k, k), (-4) ** k))


def test_series_of_polynomial_with_empty_parts():
    """d with empty parts above its degree and in every odd degree: the
    recurrence skips those products and both series still solve their
    identities up to degree 40."""
    ns = Namespace(("u1", "u2", "u3", "v1", "v2", "v3"))
    # theta's determinant: the 4th power of its cycle polynomial, degree 8
    cycles = poly(ns, ({}, 1), ({"u1": 1, "v1": 1}, 1), ({"u2": 1, "v2": 1}, 1),
                  ({"u3": 1, "v3": 1}, 1))
    quartic = poly(Namespace(("x", "y")), ({}, 1), ({"x": 2}, QQi(2, -1)), ({"x": 1, "y": 1}, -3),
                   ({"x": 2, "y": 2}, 5), ({"x": 1, "y": 3}, QQi(0, 4)))
    for d in (cycles.pow(4), quartic):
        one = MPoly.const(d.ns, 1)
        inv, s = inverse_series(d, 40), inv_sqrt_series(d, 40)
        assert inv.mul_trunc(d, 40) == one
        assert s.mul_trunc(s, 40).mul_trunc(d, 40) == one


# -- determinants -----------------------------------------------------------

def test_det_2x2_and_identity():
    a, b, c = (MPoly.var(NS3, v) for v in ("x", "y", "z"))
    d = MPoly.const(NS3, 2)
    m = [[a, b], [c, d]]
    assert det_poly(m) == a * d - b * c
    eye = [[MPoly.const(NS3, 1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert det_poly(eye) == MPoly.const(NS3, 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.sampled_from((int, QQi)), st.data())
def test_det_matches_cofactor(n, ring, data):
    m = [[MPoly.monomial(NS3, {v: data.draw(st.integers(0, 1)) for v in "xy"},
                         ring(data.draw(st.integers(-2, 2))))
          for _ in range(n)] for _ in range(n)]
    d = det_poly(m)
    assert d == naive_det(m)
    if ring is int:
        assert all(type(c) is int for c in d.terms.values())


def test_exact_div():
    x, y = MPoly.var(NS3, "x"), MPoly.var(NS3, "y")
    num = (x + y) * (x - y) * (x + y)
    assert exact_div(num, x + y) == (x - y) * (x + y)
    with pytest.raises(InputError):
        exact_div(x * x + y, x + y)
    # each coefficient keeps its ring: int stays int, and never turns float
    two = MPoly.const(NS3, 2)
    q = exact_div(x * 2, two)
    assert q.terms == {NS3.encode({"x": 1}): 1}
    assert all(type(c) is int for c in q.terms.values())
    half = exact_div(x * 3 + y * 4, two)
    assert half.terms == {NS3.encode({"x": 1}): Fraction(3, 2), NS3.encode({"y": 1}): 2}
    assert type(half.coefficient({"x": 1})) is Fraction
    q = exact_div(x * x * 6 - y * y * 6, (x + y) * 2)
    assert q == x * 3 - y * 3
    assert all(type(c) is int for c in q.terms.values())
    assert type(exact_div(x * 2, MPoly.const(NS3, QQi(0, 1))).coefficient({"x": 1})) is QQi
