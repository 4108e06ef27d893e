import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (exact_text, graph_obj, interleaving_crossings, presentations,
                      random_holonomy, random_unitary_holonomy, shear_gauges)
from spinnets.cli import dispatch
from oracles import admissible_colorings_brute, angle_form_fractions
from spinnets.errors import AdmissibilityError, InputError
from spinnets.graphs import (Graph, Holonomy, admissible_colorings, crossing_sign,
                             gauge_transform, internal_coloring, is_admissible)
from spinnets.rational import QQi


def theta_obj(edges=None, crossings=()):
    return {
        "name": "t",
        "vertices": [{"id": "u", "halfedges": ["u1", "u2", "u3"]},
                     {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
        "edges": edges or [{"id": "e1", "left": "u1", "right": "v3"},
                           {"id": "e2", "left": "u2", "right": "v2"},
                           {"id": "e3", "left": "u3", "right": "v1"}],
        "crossings": list(crossings),
    }


def test_counts_and_indexing(theta, tet, prism, dumbbell):
    for g, n in ((theta, 1), (tet, 2), (prism, 3), (dumbbell, 1)):
        assert g.N == n
        assert len(g.vertices) == 2 * n
        assert len(g.edges) == 3 * n
        assert len(g.halfedges) == 6 * n == len(g.angles)
        assert 3 * len(g.vertices) == 2 * len(g.edges)
        assert g.vertex_edges == tuple(tuple(g.edge_of[h][0] for h in hs)
                                       for _, hs in g.vertices)
        assert [g.edge_index[e] for e in g.edge_ids] == list(range(len(g.edges)))
        assert [g.vertex_index[v] for v, _ in g.vertices] == list(range(len(g.vertices)))
        for h in g.halfedges:
            # a loop edge puts both its half-edges in one angle
            assert g.angles_at_halfedge(h) == tuple(a for a, _, _, hh in g.angles if h in hh)


def test_validation_errors():
    bad = theta_obj()
    bad["edges"][0]["left"] = "zz"
    with pytest.raises(InputError):
        Graph.from_obj(bad)
    bad = theta_obj()
    bad["vertices"][0]["halfedges"] = ["u1", "u2"]
    with pytest.raises(InputError):
        Graph.from_obj(bad)
    bad = theta_obj(crossings=[["e1", "nope"]])
    with pytest.raises(InputError):
        Graph.from_obj(bad)
    # left half-edge at the later vertex
    bad = theta_obj(edges=[{"id": "e1", "left": "v3", "right": "u1"},
                           {"id": "e2", "left": "u2", "right": "v2"},
                           {"id": "e3", "left": "u3", "right": "v1"}])
    with pytest.raises(InputError):
        Graph.from_obj(bad)
    # a string is not a list of half-edges, even one of three characters
    bad = theta_obj(edges=[{"id": "e1", "left": "a", "right": "v3"},
                           {"id": "e2", "left": "b", "right": "v2"},
                           {"id": "e3", "left": "c", "right": "v1"}])
    bad["vertices"][0]["halfedges"] = "abc"
    with pytest.raises(InputError, match="must be a list"):
        Graph.from_obj(bad)
    # one crossing listed twice, in either order
    bad = theta_obj(crossings=[["e1", "e2"], ["e2", "e1"]])
    with pytest.raises(InputError, match="listed twice"):
        Graph.from_obj(bad)
    # an edge that is a list, not an object: a wrong type, not a missing key
    bad = theta_obj()
    bad["edges"][0] = ["e1", "u1", "v3"]
    with pytest.raises(InputError, match="wrong type") as err:
        Graph.from_obj(bad)
    assert "missing" not in str(err.value)


def test_disconnected_rejected():
    obj = {
        "name": "2theta",
        "vertices": [{"id": a, "halfedges": [f"{a}1", f"{a}2", f"{a}3"]}
                     for a in ("u", "v", "p", "q")],
        "edges": [{"id": f"e{i}", "left": f"u{i}", "right": f"v{i}"} for i in (1, 2, 3)]
              + [{"id": f"f{i}", "left": f"p{i}", "right": f"q{i}"} for i in (1, 2, 3)],
        "crossings": [],
    }
    with pytest.raises(InputError):
        Graph.from_obj(obj)


def _set(path, value):
    """A mutation of theta_obj() that sets the entry at path to value."""
    def mutate(obj):
        *keys, last = path
        for k in keys:
            obj = obj[k]
        obj[last] = value
    return mutate


def _two_thetas(obj):
    obj["vertices"] += [{"id": a, "halfedges": [f"{a}1", f"{a}2", f"{a}3"]} for a in "pq"]
    obj["edges"] += [{"id": f"f{i}", "left": f"p{i}", "right": f"q{i}"} for i in (1, 2, 3)]


@pytest.mark.parametrize("mutate,match", [
    (_set(("vertices", 1, "id"), "u"), "duplicate vertex id 'u'"),
    (_set(("vertices", 0, "halfedges"), ["u1", "u2"]), "'u' must carry exactly 3 half-edges"),
    (_set(("vertices", 1, "halfedges", 2), "u1"), "'u1' appears at two vertex slots"),
    (_set(("edges", 1, "id"), "e1"), "duplicate edge id 'e1'"),
    (_set(("edges", 0, "left"), "zz"), "edge 'e1' references unknown half-edge 'zz'"),
    (_set(("edges", 1, "left"), "u1"), "'u1' appears in two edges"),
    (lambda obj: obj["edges"].pop(), r"not covered by edges: \['u3', 'v1'\]"),
    (_set(("crossings",), [["e1", "nope"]]), r"bad crossing pair \['e1', 'nope'\]"),
    (_set(("crossings",), [["e1", "e1"]]), r"bad crossing pair \['e1'\]"),
    (_set(("edges", 0), {"id": "e1", "left": "v3", "right": "u1"}),
     "edge 'e1': left half-edge is right of its partner"),
    (_two_thetas, "graph is not connected"),
    # a gauge map keys vertices and edges in one dict
    (_set(("edges", 0, "id"), "u"), "edge id 'u' is also a vertex id"),
], ids=["dup-vertex", "two-halfedges", "two-slots", "dup-edge", "unknown-halfedge",
        "two-edges", "uncovered", "crossing-unknown-edge", "crossing-one-edge",
        "left-after-right", "disconnected", "edge-is-vertex"])
def test_each_construction_fault(mutate, match):
    """One fault per graph, each refused with its own message.  The counts
    #V = 2N, #E = 3N need no check of their own: edges that cover the 3V
    half-edges two at a time make 2E = 3V."""
    obj = theta_obj()
    mutate(obj)
    with pytest.raises(InputError, match=match):
        Graph.from_obj(obj)


@pytest.mark.parametrize("obj", [_two_thetas, lambda obj: obj.update(vertices=[], edges=[])],
                         ids=["two-thetas", "empty"])
def test_disconnected_graph_exits_2(tmp_path, capsys, obj):
    """The search that finds the cycles refuses a graph it does not cover,
    the empty graph included."""
    graph = theta_obj()
    obj(graph)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert dispatch(["series", "-g", str(path), "--degree", "0"]) == 2
    assert capsys.readouterr().err == "input error: graph is not connected\n"


@settings(max_examples=60, deadline=None)
@given(g=presentations(12))
def test_cycles_are_a_basis_of_the_cycle_space(g):
    """Graph.cycles, with loops and multi-edges: E - V + 1 cycles, each
    meeting every vertex in 0 or 2 half-edges (a loop twice), whose XOR
    span has 2^(E - V + 1) elements."""
    rank = len(g.edges) - len(g.vertices) + 1
    assert len(g.cycles) == rank
    for c in g.cycles:
        for es in g.vertex_edges:
            assert sum(c >> g.edge_index[e] & 1 for e in es) in (0, 2)
    span = {0}
    for c in g.cycles:
        span |= {x ^ c for x in span}
    assert len(span) == 1 << rank


def test_one_pass_maps(theta, tet, prism, dumbbell):
    """The construction pass keeps the presentation's orders."""
    for g in (theta, tet, prism, dumbbell):
        assert g.halfedges == tuple(h for _, hs in g.vertices for h in hs)
        assert g.edge_ids == tuple(e for e, _, _ in g.edges)
        assert g.vertex_index == {v: i for i, (v, _) in enumerate(g.vertices)}
        assert g.edge_index == {e: i for i, e in enumerate(g.edge_ids)}
        assert all(g.halfedge_slot[h] == 3 * g.vertex_index[g.vertex_of[h]] + hs.index(h)
                   for _, hs in g.vertices for h in hs)
        assert all(g.edge_of[l] == (e, "left") and g.edge_of[r] == (e, "right")
                   and g.edge_by_id[e] == (l, r) for e, l, r in g.edges)


@pytest.mark.parametrize("coloring,expect", [
    ({"e1": 0, "e2": 0, "e3": 0}, True),
    ({"e1": 1, "e2": 1, "e3": 1}, False),
    ({"e1": 2, "e2": 3, "e3": 3}, True),
    ({"e1": 5, "e2": 1, "e3": 2}, False),
])
def test_admissibility_examples(theta, coloring, expect):
    assert is_admissible(theta, coloring) is expect


def test_admissibility_missing_edge(theta):
    with pytest.raises(InputError):
        is_admissible(theta, {"e1": 1, "e2": 1})


def test_internal_coloring_vertex_354(theta):
    # incident colors (3,5,4) give angles (2,3,1) in cyclic order
    col = {"e1": 3, "e2": 5, "e3": 4}
    internal = internal_coloring(theta, col)
    assert (internal["u:01"], internal["u:12"], internal["u:02"]) == (2, 3, 1)


def test_internal_coloring_zero_and_symmetric(theta):
    assert set(internal_coloring(theta, {"e1": 0, "e2": 0, "e3": 0}).values()) == {0}
    assert set(internal_coloring(theta, {"e1": 2, "e2": 2, "e3": 2}).values()) == {1}


def test_internal_coloring_round_trip(theta, tet):
    for g in (theta, tet):
        for col in admissible_colorings(g, max_color=4):
            internal = internal_coloring(g, col)
            for e, l, r in g.edges:
                a1, a2 = g.angles_at_halfedge(l)
                assert internal[a1] + internal[a2] == col[e]
                b1, b2 = g.angles_at_halfedge(r)
                assert internal[b1] + internal[b2] == col[e]


@settings(max_examples=60, deadline=None)
@given(g=presentations(4), bounds=st.sampled_from([(3, None), (None, 5), (2, 4), (4, 3)]))
def test_admissible_colorings_match_the_brute_force_oracle(g, bounds):
    # loops, multi-edges and crossings; the same colorings in the same order
    # by max_color, max_total and both
    assert list(admissible_colorings(g, *bounds)) == admissible_colorings_brute(g, *bounds)


def test_internal_coloring_rejects_non_admissible(theta):
    with pytest.raises(AdmissibilityError):
        internal_coloring(theta, {"e1": 1, "e2": 1, "e3": 1})


def test_crossing_sign(theta):
    assert crossing_sign(theta, {"e1": 1, "e2": 1, "e3": 1}) == 1  # no crossings
    g = Graph.from_obj(theta_obj(crossings=[["e1", "e2"]]))
    assert crossing_sign(g, {"e1": 1, "e2": 1, "e3": 0}) == -1
    assert crossing_sign(g, {"e1": 2, "e2": 3, "e3": 0}) == 1


def test_admissibility_invariant_under_rotation_and_relabeling(theta):
    # rotating a vertex list and renaming edges must not change admissibility
    rotated = {
        "name": "t",
        "vertices": [{"id": "u", "halfedges": ["u2", "u3", "u1"]},
                     {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
        "edges": [{"id": "E1", "left": "u1", "right": "v3"},
                  {"id": "E2", "left": "u2", "right": "v2"},
                  {"id": "E3", "left": "u3", "right": "v1"}],
        "crossings": [],
    }
    g = Graph.from_obj(rotated)
    for col in admissible_colorings(theta, max_color=5):
        relabeled = {"E1": col["e1"], "E2": col["e2"], "E3": col["e3"]}
        assert is_admissible(theta, col) == is_admissible(g, relabeled)


def test_bundled_crossing_lists_match_interleaving(theta, tet, tetnp, prism):
    for g in (theta, tet, tetnp, prism):
        assert g.crossings == interleaving_crossings(g)


def cycle_space_parities(graph):
    """All GF(2) parity vectors of admissible colorings (the cycle space)."""
    eidx = {e: i for i, e in enumerate(graph.edge_ids)}
    vecs = set()
    for col in admissible_colorings(graph, max_color=2):
        vecs.add(tuple(col[e] % 2 for e in graph.edge_ids))
    return vecs, eidx


def crossing_form_vanishes(graph):
    vecs, eidx = cycle_space_parities(graph)
    for z in vecs:
        q = 0
        for pair in graph.crossings:
            e, f = tuple(pair)
            q ^= z[eidx[e]] & z[eidx[f]]
        if q:
            return False
    return True


def test_planar_presentations_have_trivial_sign_form(theta, tet, prism):
    for g in (theta, tet, prism):
        assert crossing_form_vanishes(g)


def test_nonplanar_presentation_has_nontrivial_sign_form(tetnp):
    assert not crossing_form_vanishes(tetnp)


def test_holonomy_regimes(theta):
    triv = Holonomy.trivial(theta)
    assert triv.exact and triv.is_trivial()
    obj = {h: [["1", "0"], ["0", "1"]] for h in theta.halfedges}
    assert Holonomy(theta, obj).exact
    obj["u1"] = [[0.6, [0.8, 0.0]], [-0.8, 0.6]]
    hol = Holonomy(theta, obj)
    assert not hol.exact
    bad = {h: [["2", "0"], ["0", "1"]] for h in theta.halfedges}
    with pytest.raises(InputError):
        Holonomy(theta, bad)


@pytest.mark.parametrize("entries", [[1], "u1", None], ids=["list", "str", "none"])
def test_holonomy_entries_must_be_a_dict(theta, entries):
    # each was an AttributeError on entries.keys()
    with pytest.raises(InputError, match="holonomy must be a JSON object"):
        Holonomy(theta, entries)


# the ways one cell of a holonomy can be written: exact ones read as the QQi,
# floating ones as complex(QQi)
_EXACT_FORMS = {"qqi": lambda x: x, "text": exact_text,
                "number": lambda x: x.re if not x.im else x}
_FLOAT_FORMS = {"complex": complex, "pair": lambda x: [complex(x).real, complex(x).imag],
                "float": lambda x: complex(x).real if not x.im else complex(x)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       forms=st.lists(st.sampled_from(sorted(_EXACT_FORMS) + sorted(_FLOAT_FORMS)),
                      min_size=24, max_size=24))
def test_holonomy_regime_is_read_from_the_cells(theta, seed, forms):
    base = random_holonomy(theta, seed=seed).entries
    it = iter(forms)
    written = {h: [[{**_EXACT_FORMS, **_FLOAT_FORMS}[next(it)](x) for x in row] for row in m]
               for h, m in base.items()}
    hol = Holonomy(theta, written)
    assert hol.exact == all(f in _EXACT_FORMS for f in forms)
    for h, m in base.items():
        for row, hrow in zip(m, hol.entries[h]):
            for x, y in zip(row, hrow):
                if hol.exact:
                    assert type(y) is QQi and y == x
                else:
                    assert type(y) is complex and y == complex(x)


def test_float_identity_is_a_floating_holonomy(theta):
    # with the regime a flag, exact=True raised "determinant 1.0, not 1" here
    hol = Holonomy(theta, {h: ((1.0, 0.0), (0.0, 1.0)) for h in theta.halfedges})
    assert not hol.exact and not hol.is_trivial()
    assert set(hol.entries.values()) == {((1 + 0j, 0j), (0j, 1 + 0j))}


@pytest.mark.parametrize("m", [((1e300, 1e300), (1e300, 1e300)), ((10 ** 400, 0.5), (0, 1))],
                         ids=["nan-det", "big-int"])
def test_floating_holonomy_refuses_cells_past_floating_point(theta, m):
    # the determinant inf - inf = nan passed the |det - 1| check; the int
    # beyond floating point was an OverflowError
    entries = dict.fromkeys(theta.halfedges, ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(InputError, match="'u2'"):
        Holonomy(theta, {**entries, "u2": m})


def _exactly(form):
    """An angle form with the type of each coefficient, so == is exact."""
    coeffs, den = form
    return [(type(c), c) for c in coeffs], den


def test_holonomy_angle_form(theta):
    obj = {h: [["1", "1/2"], ["0", "1"]] for h in theta.halfedges}
    # psi^{-1} = ((1, -1/2), (0, 1)) at both half-edges cancels: the bracket
    # stays z_g w_h - z_h w_g
    assert _exactly(Holonomy(theta, obj).angle_form("u1", "u2")) == \
        _exactly(((0, 1, -1, 0), 1))
    # with psi_u2 = 1 it is (z_1 - w_1/2) w_2 - z_2 w_1, scaled by 2
    obj["u2"] = [["1", "0"], ["0", "1"]]
    assert _exactly(Holonomy(theta, obj).angle_form("u1", "u2")) == \
        _exactly(((0, 2, -2, -1), 2))


def test_trivial_angle_form_is_the_evaluator_constant(theta, tet, tetnp, prism, dumbbell):
    # every angle form of the trivial holonomy is z_g w_h - z_h w_g, int
    # coefficients over 1, as the values under None have always read it
    for g in (theta, tet, tetnp, prism, dumbbell):
        triv = Holonomy.trivial(g)
        for _, _, _, (h1, h2) in g.angles:
            assert _exactly(triv.angle_form(h1, h2)) == _exactly(((0, 1, -1, 0), 1))


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(("theta", "tet", "prism", "dumbbell")),
       seed=st.integers(0, 2**16), data=st.data())
def test_vertex_gauge_keeps_angle_forms(theta, tet, prism, dumbbell, name, seed, data):
    # psi_h -> psi_h g_v^{-1} maps the form psi_g^{-T} eps psi_h^{-1} to
    # psi_g^{-T} g_v^T eps g_v psi_h^{-1}, and g^T eps g = eps for det g = 1
    g = {"theta": theta, "tet": tet, "prism": prism, "dumbbell": dumbbell}[name]
    hol = random_holonomy(g, seed=seed)
    gauge = data.draw(shear_gauges(g))
    one, zero = QQi(1), QQi(0)
    gauge.update(dict.fromkeys(g.edge_ids, ((one, zero), (zero, one))))
    gauged = gauge_transform(g, hol, gauge)
    for _, _, _, (h1, h2) in g.angles:
        assert _exactly(gauged.angle_form(h1, h2)) == _exactly(hol.angle_form(h1, h2))


@settings(max_examples=40, deadline=None)
@given(graph=presentations(4), kind=st.sampled_from(("gaussian", "unitary")),
       seed=st.integers(0, 2**16), gauged=st.booleans(), data=st.data())
def test_angle_forms_match_the_fraction_route(graph, kind, seed, gauged, data):
    # the forms from the cleared Gaussian-integer adjugates equal, in value
    # and in the type of each coefficient, the forms on Gaussian rationals;
    # a shear gauge at every vertex and edge makes the cells' denominators
    # products of several shears' (each up to 12)
    hol = (random_holonomy if kind == "gaussian" else random_unitary_holonomy)(graph, seed)
    if gauged:
        hol = gauge_transform(graph, hol, data.draw(shear_gauges(graph)))
    pairs = [hs for _, _, _, hs in graph.angles] + [(h, h) for h in graph.halfedges[:2]]
    pairs.append(tuple(data.draw(st.permutations(graph.halfedges))[:2]))
    for h1, h2 in pairs:
        assert _exactly(hol.angle_form(h1, h2)) == _exactly(angle_form_fractions(hol, h1, h2))


def test_genus(theta, tet, tetnp, prism, dumbbell):
    for g in (theta, tet, tetnp, prism, dumbbell):
        assert g.genus == 0, g.name
    # the right vertex lists its half-edges in the left vertex's order: one face
    edges = [{"id": f"e{i}", "left": f"u{i}", "right": f"v{i}"} for i in (1, 2, 3)]
    assert Graph.from_obj(theta_obj(edges)).genus == 1


def test_graph_json_round_trip(tet):
    assert graph_obj(Graph.from_obj(json.loads(json.dumps(graph_obj(tet))))) == graph_obj(tet)
