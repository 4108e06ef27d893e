import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_sl2, random_holonomy, shear_gauge, shear_gauges
from oracles import tet_value_oracle
from spinnets import evaluator as evaluator_module
from spinnets.errors import AdmissibilityError, InputError, RegimeError
from spinnets.evaluator import (bracket_square, eval_spin_network, gauge_transform,
                                renormalize, theta_value)
from spinnets.graphs import Graph, Holonomy, admissible_colorings
from spinnets.polyring import apply_edge_operator
from spinnets.rational import QQi


def test_theta_trivial_cases(theta):
    assert eval_spin_network(theta, {"e1": 0, "e2": 0, "e3": 0}) == QQi(1)
    assert eval_spin_network(theta, {"e1": 1, "e2": 1, "e3": 1}) == QQi(0)
    v = eval_spin_network(theta, {"e1": 2, "e2": 2, "e3": 2})
    assert v.norm2() == 9  # |value| = 3


@pytest.mark.parametrize("coloring", [
    {"e1": 2.0, "e2": 2, "e3": 2},
    {"e1": "2", "e2": 2, "e3": 2},
    {"e1": True, "e2": True, "e3": 2},
    {"e1": -2, "e2": 2, "e3": 2},
    {"e1": 2, "e2": 2},
    {"e1": 2, "e2": 2, "e3": 2, "e9": 2},
], ids=["float", "str", "bool", "negative", "missing", "unknown"])
def test_coloring_is_checked(theta, coloring):
    # a float or str color was a TypeError, and True was read as 1
    for f in (eval_spin_network, bracket_square):
        with pytest.raises(InputError):
            f(theta, coloring)


def test_eval_at_the_color_bound(theta):
    # one variable reaches exponent 60
    v = eval_spin_network(theta, {"e1": 60, "e2": 58, "e3": 2})
    assert v.im == 0
    assert abs(v.re) == theta_value(60, 58, 2)
    with pytest.raises(InputError):
        eval_spin_network(theta, {"e1": 61, "e2": 59, "e3": 2})


def test_theta_value_examples():
    assert theta_value(0, 0, 0) == 1
    assert theta_value(2, 2, 2) == 3
    # closed formula gives 3 here (6/2); cross-checked against the contraction
    assert theta_value(1, 1, 2) == 3
    with pytest.raises(AdmissibilityError):
        theta_value(1, 1, 1)
    with pytest.raises(AdmissibilityError):
        theta_value(5, 1, 2)


def test_theta_closed_form_small(theta):
    for col in admissible_colorings(theta, max_color=6):
        v = eval_spin_network(theta, col)
        assert v.im == 0
        assert abs(v.re) == theta_value(col["e1"], col["e2"], col["e3"])


def test_theta_value_vs_eval_112(theta):
    v = eval_spin_network(theta, {"e1": 1, "e2": 1, "e3": 2})
    assert abs(v.re) == theta_value(1, 1, 2) == 3


def test_tet_matches_racah_oracle_small(tet):
    for col in admissible_colorings(tet, max_color=3):
        v = eval_spin_network(tet, col)
        assert v.im == 0
        assert v.re == tet_value_oracle(col)


def test_presentations_agree(tet, tetnp):
    # same cyclic structure, different presentation: equal evaluations
    for col in admissible_colorings(tet, max_color=3):
        assert eval_spin_network(tet, col) == eval_spin_network(tetnp, col)


def test_rotated_vertex_presentation_agrees(theta):
    rotated = Graph.from_obj({
        "name": "theta_rot",
        "vertices": [{"id": "u", "halfedges": ["u2", "u3", "u1"]},
                     {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
        "edges": [{"id": "e1", "left": "u1", "right": "v3"},
                  {"id": "e2", "left": "u2", "right": "v2"},
                  {"id": "e3", "left": "u3", "right": "v1"}],
        "crossings": [["e1", "e2"], ["e1", "e3"]],
    })
    assert rotated.crossings == rotated.interleaving_crossings()
    for col in admissible_colorings(theta, max_color=4):
        assert eval_spin_network(theta, col) == eval_spin_network(rotated, col)


def test_renormalize(theta):
    col = {"e1": 2, "e2": 2, "e3": 2}
    assert renormalize(theta, col, QQi(1)) == QQi(8)  # (2!)^3 / 1
    col0 = {"e1": 0, "e2": 0, "e3": 0}
    assert renormalize(theta, col0, QQi(5)) == QQi(5)
    v = QQi(Fraction(3, 7))
    back = renormalize(theta, col, v) * Fraction(1, 8)
    assert back == v


def test_bracket_square(theta, tet):
    for col in admissible_colorings(theta, max_color=5):
        assert bracket_square(theta, col) == 1
    assert bracket_square(theta, {"e1": 1, "e2": 1, "e3": 1}) == 0
    assert bracket_square(tet, {e: 2 for e in tet.edge_ids}) == Fraction(1, 36)
    hol = random_holonomy(theta, seed=3)
    assert bracket_square(theta, {"e1": 2, "e2": 2, "e3": 2}, hol) >= 0


def test_float_holonomy_rejected(theta):
    hol = Holonomy(theta, {h: ((1.0, 0.0), (0.0, 1.0)) for h in theta.halfedges}, False)
    with pytest.raises(RegimeError):
        eval_spin_network(theta, {"e1": 0, "e2": 0, "e3": 0}, hol)


def test_gauge_invariance(theta):
    rng = random.Random(1)
    hol = random_holonomy(theta, seed=2)
    col = {"e1": 3, "e2": 2, "e3": 1}
    base = eval_spin_network(theta, col, hol)
    keys = ["u", "v", "e1", "e2", "e3"]
    for _ in range(100):
        g = {k: rand_sl2(rng) for k in keys}
        assert eval_spin_network(theta, col, gauge_transform(theta, hol, g)) == base


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(("theta", "tet")), seed=st.integers(0, 2**16), data=st.data())
def test_scaled_contraction_is_gauge_invariant(theta, tet, name, seed, data):
    """Half-edge forms are scaled by their own denominators, which a random
    Gaussian-rational gauge changes; every contraction runs on Gaussian
    integers and the value does not change."""
    g = {"theta": theta, "tet": tet}[name]
    cols = list(admissible_colorings(g, max_color=3))
    col = data.draw(st.sampled_from(cols))
    hol = random_holonomy(g, seed=seed)
    gauged = gauge_transform(g, hol, data.draw(shear_gauges(g)))
    coeffs = []

    def spy(factors, *args):
        for poly in factors:
            coeffs.extend(poly.terms.values())
        out = apply_edge_operator(factors, *args)
        coeffs.extend(out.terms.values())
        return out

    with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
        value = eval_spin_network(g, col, gauged)
    assert all(type(c) is int or (type(c.re) is int and type(c.im) is int) for c in coeffs)
    assert value == eval_spin_network(g, col, hol)


def test_gauge_identity_and_minus_identity(theta):
    hol = random_holonomy(theta, seed=4)
    one, zero = QQi(1), QQi(0)
    eye = ((one, zero), (zero, one))
    neg = ((-one, zero), (zero, -one))
    keys = ["u", "v", "e1", "e2", "e3"]
    assert gauge_transform(theta, hol, {k: eye for k in keys}).entries == hol.entries
    assert gauge_transform(theta, hol, {k: neg for k in keys}).entries == hol.entries


def test_gauge_rejects_non_unimodular(theta):
    hol = Holonomy.trivial(theta)
    bad = ((QQi(2), QQi(0)), (QQi(0), QQi(1)))
    with pytest.raises(InputError):
        gauge_transform(theta, hol, {k: bad for k in ["u", "v", "e1", "e2", "e3"]})


def eval_both_rings(graph, col, seed):
    """Value under the trivial holonomy (int ring), asserted equal to the
    value under a shear gauge of it (QQi ring)."""
    hol = gauge_transform(graph, Holonomy.trivial(graph), shear_gauge(graph, seed))
    assert any(x.im for m in hol.entries.values() for row in m for x in row)
    value = eval_spin_network(graph, col)
    assert eval_spin_network(graph, col, hol) == value
    return value


@pytest.fixture(scope="module")
def tet_colorings(tet):
    return list(admissible_colorings(tet, max_color=6))


@pytest.fixture(scope="module")
def prism_colorings(prism):
    return list(admissible_colorings(prism, max_color=3))


@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_int_ring_matches_gaussian_ring_tet(tet, tet_colorings, data, seed):
    col = data.draw(st.sampled_from(tet_colorings))
    assert eval_both_rings(tet, col, seed) == QQi(tet_value_oracle(col))


@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_int_ring_matches_gaussian_ring_prism(prism, prism_colorings, data, seed):
    eval_both_rings(prism, data.draw(st.sampled_from(prism_colorings)), seed)
