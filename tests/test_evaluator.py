import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinnets
from conftest import (DUMBBELL, _signature, interleaving_crossings, presentations, prism_graph,
                      rand_sl2, random_holonomy, random_presentation, shear_gauge,
                      shear_gauges)
from oracles import eval_by_squaring, eval_greedy, tet_value_oracle
from spinnets import bundled_graph_path, load_graph
from spinnets import evaluator as evaluator_module
from spinnets.errors import AdmissibilityError, InputError, RegimeError
from spinnets.evaluator import bracket_square, eval_spin_network, renormalize, theta_value
from spinnets.graphs import Graph, Holonomy, admissible_colorings, gauge_transform
from spinnets.polyring import apply_edge_operator, form_power
from spinnets.rational import QQi
from spinnets.series import series_Z


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


# theta with its left vertex's half-edges rotated: the same ids, other angles
THETA_ROT = {
    "name": "theta_rot",
    "vertices": [{"id": "u", "halfedges": ["u2", "u3", "u1"]},
                 {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
    "edges": [{"id": "e1", "left": "u1", "right": "v3"},
              {"id": "e2", "left": "u2", "right": "v2"},
              {"id": "e3", "left": "u3", "right": "v1"}],
    "crossings": [["e1", "e2"], ["e1", "e3"]],
}


def test_rotated_vertex_presentation_agrees(theta):
    rotated = Graph.from_obj(THETA_ROT)
    assert rotated.crossings == interleaving_crossings(rotated)
    for col in admissible_colorings(theta, max_color=4):
        assert eval_spin_network(theta, col) == eval_spin_network(rotated, col)


def test_holonomy_reused_on_another_presentation(theta):
    # angle u:01 pairs u1 with u2 on theta and u2 with u3 on theta_rot, so
    # the forms a holonomy keeps from theta must not be read by angle id
    rotated = Graph.from_obj(THETA_ROT)
    hol = random_holonomy(theta, seed=5)
    cols = list(admissible_colorings(theta, max_color=4))
    for col in cols:
        eval_spin_network(theta, col, hol)
    fresh = Holonomy(rotated, hol.entries)
    for col in cols:
        assert eval_spin_network(rotated, col, hol) == eval_spin_network(rotated, col, fresh)


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
    hol = Holonomy(theta, {h: ((1.0, 0.0), (0.0, 1.0)) for h in theta.halfedges})
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
    cols = [c for c in admissible_colorings(g, max_color=3) if any(c.values())]
    col = data.draw(st.sampled_from(cols))
    hol = random_holonomy(g, seed=seed)
    gauged = gauge_transform(g, hol, data.draw(shear_gauges(g)))
    coeffs, calls = [], []

    def spy(factors, *args):
        calls.append(args)
        for poly in factors:
            coeffs.extend(poly.terms.values())
        out = apply_edge_operator(factors, *args)
        coeffs.extend(out.terms.values())
        return out

    with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
        value = eval_spin_network(g, col, gauged)
    # a drawn coloring has a nonzero color, so at least one edge is
    # contracted; a spy that saw nothing would pass the check below vacuously
    assert calls and coeffs
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


@pytest.mark.parametrize("m", [((0.5, 0), (0, 2.0)), ((2.0, 0), (0, "1/2")),
                               ((True, 0), (0, 1)), ((None, 0), (0, 1)), (([1, 0], 0), (0, 1))])
def test_gauge_rejects_inexact_entries(theta, m):
    # a float or a bool was read as a number: ((0.5, 0), (0, 2.0)) passed
    g = {k: ((1, 0), (0, 1)) for k in ["u", "v", "e1", "e2", "e3"]}
    g["e2"] = m
    with pytest.raises(InputError, match="bad scalar .* in gauge element at 'e2'"):
        gauge_transform(theta, Holonomy.trivial(theta), g)


def test_gauge_rejects_unknown_key(theta):
    # the key was ignored: the identities plus "zz" returned the trivial holonomy
    g = {k: ((1, 0), (0, 1)) for k in ["u", "v", "e1", "e2", "e3"]}
    g["zz"] = ((2, 0), (0, "1/2"))
    with pytest.raises(InputError, match="gauge map names 'zz', which is no vertex or edge id"):
        gauge_transform(theta, Holonomy.trivial(theta), g)


def test_gauge_rejects_non_2x2(theta):
    g = dict.fromkeys(["u", "v", "e1", "e2", "e3"], ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(InputError, match="gauge element at 'u' is not a 2x2 matrix"):
        gauge_transform(theta, Holonomy.trivial(theta), g)


_EYE_GAUGE = dict.fromkeys(["u", "v", "e1", "e2", "e3"], ((1, 0), (0, 1)))


@pytest.mark.parametrize("g", [5, {**_EYE_GAUGE, "u": 5}, {**_EYE_GAUGE, "u": None},
                               {**_EYE_GAUGE, "u": ["10", "01"]}],
                         ids=["map", "int", "none", "strings"])
def test_gauge_rejects_a_map_or_element_of_another_type(theta, g):
    # the map 5 was an AttributeError, the int and None elements TypeErrors;
    # the two strings were read as the rows (1, 0) and (0, 1)
    with pytest.raises(InputError, match="gauge map must be a dict|gauge element at 'u' is not"):
        gauge_transform(theta, Holonomy.trivial(theta), g)


def test_gauge_accepts_exact_scalars(theta):
    hol = random_holonomy(theta, seed=6)
    keys = ["u", "v", "e1", "e2", "e3"]
    half = Fraction(1, 2)
    forms = [((QQi(2), QQi(0)), (QQi(0), QQi(half))),
             ((2, 0), (0, half)),
             (("2", 0), ("0", "1/2"))]
    gauged = [gauge_transform(theta, hol, dict.fromkeys(keys, m)).entries for m in forms]
    assert gauged[0] == gauged[1] == gauged[2]


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


@settings(max_examples=30, deadline=None)
@given(graph=presentations(6), seed=st.integers(0, 2**16), data=st.data())
def test_contraction_matches_evaluation_by_squaring(graph, seed, data):
    """The one-pass angle powers and the term-dict edge kernel give the
    value of the squaring oracle, contracting the same edges in the same
    order into factors of the same term counts."""
    col = data.draw(st.sampled_from(list(admissible_colorings(graph, max_color=2))))
    hol = data.draw(st.sampled_from((None, random_holonomy(graph, seed=seed))))
    expect_trace, trace = [], []

    def spy(factors, z1, w1, z2, w2, c):
        out = apply_edge_operator(factors, z1, w1, z2, w2, c)
        trace.append(((z1, w1, z2, w2), tuple(len(f.terms) for f in factors), len(out.terms)))
        return out

    expect = eval_by_squaring(graph, col, hol, expect_trace)
    with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
        assert eval_spin_network(graph, col, hol) == expect
    assert trace == expect_trace


# sha256 of the lines "<graph> <sorted (edge, color) pairs> <re> <im>" for
# every admissible coloring of theta, tetrahedron and prism3 with colors <= 3,
# each under the trivial holonomy and, for colors <= 3, 3 and 2, under
# random_holonomy(graph, seed=27), as the evaluator gave them before its
# one-pass angle powers and term-dict edge kernel
GOLDEN_DIGEST = "9a65d5455094147f451b1dbf64965d7ce2e35810c3cc51137c25ee17d19ab42e"


def test_values_match_the_recorded_digest(theta, tet, prism):
    digest = hashlib.sha256()
    for name, graph, holonomy_max in (("theta", theta, 3), ("tetrahedron", tet, 3),
                                      ("prism3", prism, 2)):
        hol = random_holonomy(graph, seed=27)
        for col in admissible_colorings(graph, max_color=3):
            for h in (None, hol) if max(col.values()) <= holonomy_max else (None,):
                v = eval_spin_network(graph, col, h)
                digest.update(f"{name} {sorted(col.items())} {v.re} {v.im}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def _table_digest(table):
    digest = hashlib.sha256()
    for key in sorted(table):
        d, power = table[key]
        digest.update(f"{key} {d} {sorted(power.terms.items(), key=str)}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["theta", "tetrahedron", "prism3", "tetrahedron_nonplanar",
                                  "dumbbell"])
def test_none_reads_the_one_trivial_holonomy(name):
    """None stands for the graph's one trivial holonomy, kept on the graph:
    evaluations under None build one angle-power table in it, keyed by the
    graph's plan, and every value of total <= 6 and the series to degree 8
    equal those under the holonomy passed, coefficient types included."""
    graph = (Graph.from_obj(DUMBBELL) if name == "dumbbell"
             else load_graph(bundled_graph_path(name)))
    trivial = Holonomy.trivial(graph)
    assert Holonomy.trivial(graph) is trivial
    cols = list(admissible_colorings(graph, max_total=6))
    values = [eval_spin_network(graph, col) for col in cols]
    assert list(trivial._angle_powers) == [graph._contraction_plan]
    for col, value in zip(cols, values):
        got = eval_spin_network(graph, col, trivial)
        assert got == value and _signature(got) == _signature(value), col
    want, got = series_Z(graph, None, 8), series_Z(graph, trivial, 8)
    assert got.ns == want.ns and got.terms.keys() == want.terms.keys()
    for k, c in got.terms.items():
        assert c == want.terms[k] and _signature(c) == _signature(want.terms[k]), k


@pytest.mark.parametrize("name", ["tetrahedron", "prism3"])
def test_angle_power_table_is_shared_and_never_written(name):
    """Every admissible coloring with colors <= 4, evaluated in one order
    and then in the reverse order on the same graph: the values agree, the
    second pass finds every angle power in the table the graph's trivial
    holonomy keeps for its plan and hands those same objects to the edge
    kernel, no entry is added or changed, each is still the power
    form_power gives, and the table holds at most one power per angle and
    color."""
    graph = load_graph(bundled_graph_path(name))
    cols = list(admissible_colorings(graph, max_color=4))
    first = [eval_spin_network(graph, col) for col in cols]
    plan = graph._contraction_plan
    powers = Holonomy.trivial(graph)._angle_powers[plan]
    table = dict(powers)
    digest = _table_digest(powers)
    assert 0 < len(table) <= len(graph.angles) * (evaluator_module._MAX_COLOR + 1)
    ids = {id(p) for _, p in table.values()}
    shared = []

    def spy(factors, *args):
        shared.extend(id(f) in ids for f in factors)
        return apply_edge_operator(factors, *args)

    with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
        second = [eval_spin_network(graph, col) for col in reversed(cols)]
    assert second[::-1] == first
    assert any(shared)
    assert powers.keys() == table.keys()
    assert all(powers[key] is table[key] for key in table)
    assert _table_digest(powers) == digest
    # and no entry was changed in the first pass either
    for (a, n), (d, power) in table.items():
        assert (d, power.terms) == (1, form_power((0, 1, -1, 0), plan.angles[a][6], n))


def test_holonomy_angle_power_table_is_shared_and_never_written():
    """The table test above under an exact holonomy other than the trivial
    one, on the two tetrahedron presentations, which share their half-edge
    ids (so one Holonomy serves both) but not the order of their angles:
    the holonomy keeps one table per plan, the second pass in reverse order
    finds every power there and hands those same objects to the edge
    kernel, no entry is added or changed, each is the power form_power
    gives for that plan's angle, and every value equals the one under a
    fresh copy of the holonomy, which has no table yet."""
    graphs = [load_graph(bundled_graph_path(n)) for n in ("tetrahedron", "tetrahedron_nonplanar")]
    hol = random_holonomy(graphs[0], seed=3)
    cols = list(admissible_colorings(graphs[0], max_color=3))
    first = [[eval_spin_network(g, col, hol) for col in cols] for g in graphs]
    plans = [g._contraction_plan for g in graphs]
    assert [a[3:5] for a in plans[0].angles] != [a[3:5] for a in plans[1].angles]
    tables = hol._angle_powers
    assert tables.keys() == set(plans)
    for g, plan, values in zip(graphs, plans, first):
        table = dict(tables[plan])
        digest = _table_digest(table)
        assert 0 < len(table) <= len(g.angles) * (evaluator_module._MAX_COLOR + 1)
        ids = {id(p) for _, p in table.values()}
        shared = []

        def spy(factors, *args):
            shared.extend(id(f) in ids for f in factors)
            return apply_edge_operator(factors, *args)

        with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
            second = [eval_spin_network(g, col, hol) for col in reversed(cols)]
        assert second[::-1] == values
        assert any(shared)
        assert tables[plan].keys() == table.keys()
        assert all(tables[plan][key] is table[key] for key in table)
        assert _table_digest(tables[plan]) == digest
        for (a, n), (d, power) in table.items():
            _, _, _, gh, hh, _, keys = plan.angles[a]
            coeffs, den = hol.angle_form(gh, hh)
            assert (d, power.terms) == (den ** n, form_power(coeffs, keys, n))
        fresh = Holonomy(g, hol.entries)
        assert [eval_spin_network(g, col, fresh) for col in cols] == values
    assert tables.keys() == set(plans)


def _gauged_kinds(graph, seed):
    """The trivial holonomy and a random exact one, each as is and
    shear-gauged."""
    hol = random_holonomy(graph, seed=seed)
    return (None, gauge_transform(graph, Holonomy.trivial(graph), shear_gauge(graph, seed)),
            hol, gauge_transform(graph, hol, shear_gauge(graph, seed + 1)))


@settings(max_examples=25, deadline=None)
@given(graph=presentations(8), seed=st.integers(0, 2**16), data=st.data())
def test_planned_order_matches_the_greedy(graph, seed, data):
    """The order planned once per graph holds every edge of the graph once,
    loops and multi-edges included, and gives the value the per-coloring
    greedy gives, of the same type and part types."""
    col = data.draw(st.sampled_from(list(admissible_colorings(graph, max_total=4))))
    hol = data.draw(st.sampled_from(_gauged_kinds(graph, seed)))
    got, want = eval_spin_network(graph, col, hol), eval_greedy(graph, col, hol)
    assert got == want and _signature(got) == _signature(want)
    planned = [e for e, _, _ in evaluator_module._plan(graph).edges]
    assert sorted(planned, key=graph.edge_index.get) == list(graph.edge_ids)


@pytest.mark.parametrize("name", ["theta", "tetrahedron", "tetrahedron_nonplanar", "prism3"])
def test_planned_order_matches_the_greedy_on_bundled_graphs(name):
    graph = load_graph(bundled_graph_path(name))
    hol = random_holonomy(graph, seed=11)
    for col in admissible_colorings(graph, max_total=8):
        for h in (None, hol):
            got, want = eval_spin_network(graph, col, h), eval_greedy(graph, col, h)
            assert got == want and _signature(got) == _signature(want), (col, h)


_PRINT_ORDERS = """
import time
from spinnets import bundled_graph_path, load_graph
from spinnets.evaluator import _plan

graphs = [load_graph(bundled_graph_path(n))
          for n in ("theta", "tetrahedron", "tetrahedron_nonplanar", "prism3")]

def clock():
    raise AssertionError("the contraction planner read a clock")

time.perf_counter = time.time = time.monotonic = time.process_time = clock
for g in graphs:
    print(g.name, [e for e, _, _ in _plan(g).edges])
"""


def test_planned_order_is_deterministic():
    """Each bundled graph's planned order is the same in two fresh
    interpreters with other string hash seeds, and planning reads no
    clock."""
    outs = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(Path(spinnets.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _PRINT_ORDERS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4


def test_planned_order_bounds_the_largest_factor():
    """Every color 4 on a V = 16 presentation, on which the per-coloring
    greedy's largest factor has 706051 terms (about 0.8 s), and on a V = 24
    one, on which the cheapest of 8 greedy trials passed the term budget:
    under the planned order no factor the edge kernel returns passes 100000
    terms."""
    for n, seed in ((16, 1603), (24, 2403)):
        graph = random_presentation(n, seed, loops=False)
        col = dict.fromkeys(graph.edge_ids, 4)
        largest = []

        def spy(factors, *args):
            out = apply_edge_operator(factors, *args)
            largest.append(len(out.terms))
            return out

        with mock.patch.object(evaluator_module, "apply_edge_operator", spy):
            eval_spin_network(graph, col)
        assert len(largest) == len(graph.edges) and max(largest) < 100_000, (n, seed)


def test_prism_family_is_planar_and_matches_the_bundled_prism(prism):
    """prism_graph(n) has genus 0, and prism_graph(3) evaluates as the
    bundled prism3 under the edge names' correspondence."""
    assert [prism_graph(n).genus for n in range(3, 7)] == [0, 0, 0, 0]
    names = {"t12": "t1", "t23": "t2", "t13": "t3", "b12": "b1", "b23": "b2", "b13": "b3",
             "s1": "s1", "s2": "s2", "s3": "s3"}
    ours = prism_graph(3)
    for col in admissible_colorings(prism, max_color=2):
        assert eval_spin_network(ours, {names[e]: c for e, c in col.items()}) == \
            eval_spin_network(prism, col)
