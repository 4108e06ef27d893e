from fractions import Fraction
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_series
from oracles import (edge_operator_by_products, inv_sqrt_series_objects, inverse_series_objects,
                     monomial, naive_det, naive_edge_operator, truncated)
from spinnets import polyring
from spinnets.errors import InputError, PreconditionError, ResourceError
from spinnets.polyring import (MAX_EXPONENT, MPoly, Namespace, apply_edge_operator, det_poly,
                               exact_div, form_power, inv_sqrt_series, inverse_series)
from spinnets.rational import QQi

NS3 = Namespace(("x", "y", "z"))
NS4 = Namespace(("z1", "w1", "z2", "w2"))


def poly(ns, *terms):
    p = MPoly.zero(ns)
    for exps, c in terms:
        p = p + monomial(ns, exps, c)
    return p


@st.composite
def small_polys(draw):
    n = draw(st.integers(0, 5))
    p = MPoly.zero(NS3)
    for _ in range(n):
        exps = {v: draw(st.integers(0, 3)) for v in "xyz"}
        c = QQi(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
                Fraction(draw(st.integers(-2, 2))))
        p = p + monomial(NS3, exps, c)
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
    x31y32 = monomial(ns, {"x": 31, "y": 32}, 1)
    y31 = monomial(ns, {"y": 31}, 3)
    assert x31y32 * y31 == monomial(ns, {"x": 31, "y": 63}, 3)
    assert x31y32.mul_trunc(y31, 100) == x31y32 * y31


def _exponent_outcome(ns, a, b):
    try:
        polyring._check_exponents(ns, a, b)
    except InputError as exc:
        return str(exc)
    return None


def _exponent_outcome_brute(ns, a, b):
    """The message of the first variable, in namespace order, in which some
    key of a plus some key of b passes MAX_EXPONENT, with the largest such
    sum; None when no pair does."""
    for i, name in enumerate(ns.names):
        s = 6 * i
        top = max(((ka >> s) & 63) + ((kb >> s) & 63) for ka in a for kb in b) if a and b else 0
        if top > MAX_EXPONENT:
            return f"product has exponent {top} of {name}, past the exponent bound {MAX_EXPONENT}"
    return None


# exponents near 0, 31 and 32 most of the time, where the ORs of two key
# sets carry while their maxima may still fit
EXPONENTS = st.one_of(st.integers(0, 2), st.integers(29, 34), st.integers(0, MAX_EXPONENT))
KEY_SETS = st.lists(st.tuples(EXPONENTS, EXPONENTS, EXPONENTS), max_size=5).map(
    lambda rows: {NS3.encode(dict(zip("xyz", row))) for row in rows})


@settings(max_examples=300, deadline=None)
@given(a=KEY_SETS, b=KEY_SETS)
@example(a={NS3.encode({"x": 32}), NS3.encode({"x": 31})}, b={NS3.encode({"x": 1})})
@example(a={NS3.encode({"x": 32})}, b={NS3.encode({"x": 32})})
@example(a={NS3.encode({"y": 40, "z": 30})}, b={NS3.encode({"y": 30, "z": 40})})
def test_check_exponents_matches_a_per_field_brute_force(a, b):
    """_check_exponents passes or raises the InputError text of a brute force
    over every pair of keys: OR 63 in x (32 and 31) against 1 passes though
    the ORs carry, 32 + 32 fails, and the first variable past the bound is
    named."""
    got = _exponent_outcome(NS3, a, b)
    event("raises" if got else "passes")
    assert got == _exponent_outcome_brute(NS3, a, b)
    assert _exponent_outcome(NS3, {k: 1 for k in a}, b) == got  # a term dict reads as its keys


def test_product_past_the_term_budget_forms_no_term(monkeypatch):
    # 3 × 3 coefficient products against a budget of 8: refused before the
    # multiply kernel runs; a product past the exponent bound too reports
    # the exponents first
    small = poly(NS3, ({"x": 1}, 1), ({"y": 1}, 1), ({}, 1))
    high = small + monomial(NS3, {"x": 40}, 1)
    monkeypatch.setattr(polyring, "TERM_BUDGET", 8)
    monkeypatch.setattr(polyring, "_mul_acc", lambda *args: pytest.fail("a term was formed"))
    with pytest.raises(ResourceError, match="^a product would form up to 9 terms, past the "
                                            "term budget of 8$"):
        small * small
    with pytest.raises(InputError, match="^product has exponent 80 of x, past the exponent"):
        high * high
    monkeypatch.undo()
    assert len((small * small).terms) == 6


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
        p = p + monomial(NS4, exps, QQi(data.draw(st.integers(-3, 3))))
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


def test_edge_operator_refuses_a_product_past_the_term_budget(monkeypatch):
    # the two smaller factors' product could have 3 * 3 terms, the
    # contraction of the single factor 4 * 1
    x, y = MPoly.var(NS6, "x"), MPoly.var(NS6, "y")
    small = x + y + MPoly.const(NS6, 1)
    large = poly(NS6, *(({"z1": 1, "w2": 1, "x": i}, 1) for i in range(4)))
    monkeypatch.setattr(polyring, "TERM_BUDGET", 8)
    with pytest.raises(ResourceError, match="a factor product would form up to 9 terms"):
        apply_edge_operator([small, small, large], *EDGE, 1)
    assert apply_edge_operator([large], *EDGE, 1).terms
    monkeypatch.setattr(polyring, "TERM_BUDGET", 3)
    with pytest.raises(ResourceError, match="an edge contraction would form up to 4 terms"):
        apply_edge_operator([large], *EDGE, 1)


# the variables of each side of the edge, and of both
SIDES = {"left": ("z1", "w1"), "right": ("z2", "w2"), "both": EDGE}
FACTOR_RINGS = {"int": RINGS["int"], "gaussian": RINGS["gaussian"],
                "mixed": st.one_of(RINGS["int"], RINGS["gaussian"])}


@st.composite
def edge_factors(draw, coeffs, c):
    """One to four factors on NS6, the first touching both half-edges with
    edge exponents up to 2, and each other one a drawn side with edge
    exponents up to 1.  A term of the first factor completes one
    drawn term of each other factor to a surviving pattern (c - a2, a2, a2,
    c - a2) where it can.  Every term carries a power of x above its
    factor's drawn floor, mostly 0 but also 20, 30 or 40, so that a product
    of factors may pass MAX_EXPONENT; a factor other than the first is now
    and then zero."""
    factors = []
    for i in range(draw(st.integers(1, 4))):
        names = EDGE if i == 0 else SIDES[draw(st.sampled_from(sorted(SIDES)))]
        high = draw(st.sampled_from((0, 0, 0, 20, 30, 40)))
        terms = []
        if i == 0 or draw(st.integers(0, 9)):
            for _ in range(draw(st.integers(1, 4))):
                exps = {v: draw(st.integers(0, 2 if i == 0 else 1)) for v in names}
                exps.update(x=high + draw(st.integers(0, 3)), y=draw(st.integers(0, 2)))
                terms.append(exps)
        factors.append(terms)
    a2 = draw(st.integers(0, c))
    need = dict(zip(EDGE, (c - a2, a2, a2, c - a2)))
    for terms in factors[1:]:
        if terms:
            picked = draw(st.sampled_from(terms))
            for v in EDGE:
                need[v] -= picked.get(v, 0)
    if min(need.values()) >= 0:
        factors[0].append(dict(need, x=factors[0][0]["x"]))
    polys = []
    for terms in factors:
        coeff = {NS6.encode(exps): draw(coeffs) for exps in terms}
        polys.append(MPoly(NS6, {k: x for k, x in coeff.items() if x}))
    return polys


def _edge_outcome(kernel, factors, c):
    try:
        out = kernel(factors, *EDGE, c)
    except (InputError, ResourceError) as exc:
        return type(exc), str(exc)
    return out.terms, {k: type(v) for k, v in out.terms.items()}


@settings(max_examples=150, deadline=None)
@given(ring=st.sampled_from(sorted(FACTOR_RINGS)), c=st.integers(0, 4),
       budget=st.one_of(st.none(), st.integers(0, 12)), data=st.data())
def test_edge_operator_matches_the_product_oracle(ring, c, budget, data):
    """apply_edge_operator gives the terms, coefficient types, InputError
    (an exponent past MAX_EXPONENT) and ResourceError (under a lowered
    TERM_BUDGET) of oracles.edge_operator_by_products, which multiplies the
    factors as MPoly and contracts one matched group pair at a time, and
    leaves its factors as they were."""
    factors = data.draw(edge_factors(FACTOR_RINGS[ring], c))
    before = [dict(f.terms) for f in factors]
    with mock.patch.object(polyring, "TERM_BUDGET",
                           polyring.TERM_BUDGET if budget is None else budget):
        got = _edge_outcome(apply_edge_operator, factors, c)
        expect = _edge_outcome(edge_operator_by_products, factors, c)
    event(got[0].__name__ if isinstance(got[0], type) else "zero" if not got[0] else "terms")
    assert got == expect
    assert [f.terms for f in factors] == before


# -- angle powers -------------------------------------------------------------

# the monomials z1 z2, z1 w2, w1 z2 and w1 w2 of a form on NS6
FORM_KEYS = tuple(NS6.encode({a: 1, b: 1}) for a in ("z1", "w1") for b in ("z2", "w2"))
FORM_RINGS = {
    "int": st.integers(-5, 5).filter(bool),
    "gaussian": st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3)).filter(bool),
}


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from(sorted(FORM_RINGS)), n=st.integers(0, 9),
       support=st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2),
                                (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)]),
       data=st.data())
def test_form_power_matches_repeated_squaring(ring, n, support, data):
    """A form of two to four terms whose coefficients are all ints or all
    Gaussian integers: form_power gives the terms of MPoly.pow, each of the
    same type."""
    coeffs = tuple(data.draw(FORM_RINGS[ring]) if i in support else 0 for i in range(4))
    form = MPoly(NS6, {k: c for k, c in zip(FORM_KEYS, coeffs) if c})
    got, expect = form_power(coeffs, FORM_KEYS, n), form.pow(n).terms
    assert got == expect
    assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in expect.items()}


def test_form_power_at_the_exponent_bound():
    coeffs = (0, 1, -1, 0)
    form = MPoly(NS6, {k: c for k, c in zip(FORM_KEYS, coeffs) if c})
    assert form_power(coeffs, FORM_KEYS, MAX_EXPONENT) == form.pow(MAX_EXPONENT).terms
    with pytest.raises(InputError):
        form_power(coeffs, FORM_KEYS, MAX_EXPONENT + 1)


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
    d = MPoly.const(NS3, 1) + truncated(p * p, degree)  # constant term 1
    d = MPoly(NS3, {k: c for k, c in d.terms.items()}) - monomial(
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
            d = d + monomial(ns, exps, draw(coeff))
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


# parts up to 9, or within 2^10 of +-2^200, where the residue width is exercised
_PART = st.integers(-9, 9) | st.integers(2**200 - 2**10, 2**200).map(lambda x: x * (-1) ** x)
_UNIT_RINGS = {
    "int": _PART,
    "Gaussian": st.builds(QQi, _PART, _PART),
    "mixed": _PART | st.builds(QQi, _PART, _PART),
    "Fraction": st.fractions(-4, 4, max_denominator=6) | _PART,
    "Gaussian rational": st.builds(QQi, st.fractions(-4, 4, max_denominator=6), _PART),
}


@st.composite
def unit_series(draw):
    """d = 1 + u on 1 to 3 variables, u of up to four terms of degree 1 to 3
    in one of the rings above; the constant 1 an int or a QQi."""
    ns = Namespace(("x", "y", "z")[:draw(st.integers(1, 3))])
    coeff = _UNIT_RINGS[draw(st.sampled_from(sorted(_UNIT_RINGS)))]
    terms = {0: draw(st.sampled_from((1, QQi(1))))}
    for _ in range(draw(st.integers(1, 4))):
        exps = {v: draw(st.integers(0, 3)) for v in ns.names}
        if 0 < sum(exps.values()) <= 3 and (c := draw(coeff)):
            terms[ns.encode(exps)] = c
    return MPoly(ns, terms)


@settings(max_examples=150, deadline=None)
@given(unit_series(), st.integers(0, 6))
def test_series_kernels_match_the_object_recurrence(d, degree):
    """inverse_series and inv_sqrt_series, on residues for Gaussian-integer
    input and on the objects otherwise, equal the recurrence run on the
    coefficient objects term by term, with their types."""
    assert_same_series(inverse_series(d, degree), inverse_series_objects(d, degree))
    assert_same_series(inv_sqrt_series(d, degree), inv_sqrt_series_objects(d, degree))


def test_residue_path_gives_every_coefficient_as_a_qqi():
    """The one type difference by design: on 1 + x + i·y the residue path
    gives x's coefficient of the inverse as QQi(-1), where the recurrence
    on the objects keeps the int -1 it reached by real products alone."""
    ns = Namespace(("x", "y"))
    d = poly(ns, ({}, 1), ({"x": 1}, 1), ({"y": 1}, QQi(0, 1)))
    x = ns.encode({"x": 1})
    got, want = inverse_series(d, 2).terms, inverse_series_objects(d, 2).terms
    assert type(got[x]) is QQi and got[x] == -1 and type(want[x]) is int
    assert type(got[0]) is type(want[0]) is int  # F_0 is the int 1 either way


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


def test_series_check_exponents_past_degree_63():
    """A series step's products are homogeneous of the step's degree, so
    only past MAX_EXPONENT can they carry: on 1 + z^2 the degree-64 step
    forms z^2·z^62 and both series refuse it, and on 1 + z·w, whose
    exponents stay at 32, both match the object recurrence, which checks
    every product."""
    ns = Namespace(("z", "w"))
    for series in (inverse_series, inv_sqrt_series):
        with pytest.raises(InputError, match="^product has exponent 64 of z, past"):
            series(poly(ns, ({}, 1), ({"z": 2}, 1)), 64)
    d = poly(ns, ({}, 1), ({"z": 1, "w": 1}, 1))
    assert_same_series(inverse_series(d, 64), inverse_series_objects(d, 64))
    assert_same_series(inv_sqrt_series(d, 64), inv_sqrt_series_objects(d, 64))


def test_series_budget_bounds_the_terms_held_not_a_steps_products(monkeypatch):
    """1/(1 - s - s^2), s = x + y + z, has every monomial up to degree 10,
    286 terms, with no cancellation in any step; its last step takes more
    coefficient products than that, no one product as many.  It runs on a
    budget of exactly its terms and fails one term below, and a product
    past the budget fails before it is formed."""
    s = poly(NS3, *(({v: 1}, 1) for v in "xyz"))
    d = MPoly.const(NS3, 1) - s - s * s
    want = inverse_series(d, 10)
    held = len(want.terms)
    d_parts = polyring._homogeneous_parts(d, 10)
    f_parts = polyring._homogeneous_parts(want, 10)
    products = [len(d_parts[m]) * len(f_parts[10 - m]) for m in range(1, 11)]
    assert held == comb(13, 3) and max(products) <= held < sum(products)
    monkeypatch.setattr(polyring, "TERM_BUDGET", held)
    assert inverse_series(d, 10) == want
    monkeypatch.setattr(polyring, "TERM_BUDGET", held - 1)
    with pytest.raises(ResourceError, match="degree-10 part of a series and the parts below"):
        inverse_series(d, 10)
    # one product, -s times F_0 = 1, past the budget before it is formed
    monkeypatch.setattr(polyring, "TERM_BUDGET", 2)
    with pytest.raises(ResourceError, match="degree-1 part of a series would form up to 3 terms"):
        inverse_series(d, 10)


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
    m = [[monomial(NS3, {v: data.draw(st.integers(0, 1)) for v in "xy"},
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
