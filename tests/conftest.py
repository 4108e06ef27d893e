import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from spinnets import bundled_graph_path, load_graph
from spinnets.graphs import Graph
from spinnets.rational import QQi


@pytest.fixture(scope="session")
def theta():
    return load_graph(bundled_graph_path("theta"))


@pytest.fixture(scope="session")
def tet():
    return load_graph(bundled_graph_path("tetrahedron"))


@pytest.fixture(scope="session")
def tetnp():
    return load_graph(bundled_graph_path("tetrahedron_nonplanar"))


@pytest.fixture(scope="session")
def prism():
    return load_graph(bundled_graph_path("prism3"))


# two vertices, each with a loop edge, joined by one edge: the loop a and the
# angle between u1 and u2 link the same pair of half-edges
DUMBBELL = {
    "name": "dumbbell",
    "vertices": [{"id": "u", "halfedges": ["u1", "u2", "u3"]},
                 {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
    "edges": [{"id": "a", "left": "u1", "right": "u2"},
              {"id": "b", "left": "u3", "right": "v1"},
              {"id": "c", "left": "v2", "right": "v3"}],
}


@pytest.fixture(scope="session")
def dumbbell_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "dumbbell.json"
    path.write_text(json.dumps(DUMBBELL))
    return path


@pytest.fixture(scope="session")
def dumbbell(dumbbell_path):
    return load_graph(dumbbell_path)


def _signature(c):
    """A coefficient's type, with a QQi's part types."""
    return (type(c),) + ((type(c.re), type(c.im)) if type(c) is QQi else ())


def assert_same_series(got, want):
    """got == want term by term, each coefficient of the same type and part
    types, but for one difference by design of the residue path of
    polyring's series kernels: a coefficient that path gives as a QQi with
    imaginary part 0 may be the equal int or Fraction in want, on a monomial
    only real products reached."""
    assert got.ns == want.ns and got.terms.keys() == want.terms.keys()
    for k, c in got.terms.items():
        w = want.terms[k]
        assert c == w, (k, c, w)
        if _signature(c) != _signature(w):
            assert _signature(c) == (QQi, type(w), int) and type(w) in (int, Fraction), (k, c, w)


def rand_qqi(rng, lim=2):
    return QQi(Fraction(rng.randint(-lim, lim), rng.randint(1, 3)),
               Fraction(rng.randint(-lim, lim), rng.randint(1, 3)))


def exact_text(x: QQi) -> str:
    """x in the exact-string form of holonomy files, "p/q", "r/s i" or
    "p/q+r/s i"."""
    if not x.im:
        return str(x.re)
    return f"{x.re}{'+' if x.im >= 0 else '-'}{abs(x.im)} i"


def mat2_mul(a, b):
    (p, q), (r, s) = a
    (t, u), (v, w) = b
    return ((p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w))


def rand_sl2(rng, steps=3):
    """Random exact determinant-1 matrix: product of elementary shears."""
    one, zero = QQi(1), QQi(0)
    m = ((one, zero), (zero, one))
    for _ in range(steps):
        x = rand_qqi(rng)
        if rng.random() < 0.5:
            m = mat2_mul(m, ((one, x), (zero, one)))
        else:
            m = mat2_mul(m, ((one, zero), (x, one)))
    return m


def random_holonomy(graph, seed=0, steps=3):
    from spinnets.graphs import Holonomy

    rng = random.Random(seed)
    return Holonomy(graph, {h: rand_sl2(rng, steps) for h in graph.halfedges})


def _gauge_of_shears(graph, shear):
    """Determinant-1 gauge elements ((1, a), (0, 1)) ((1, 0), (b, 1)) at every
    vertex and edge, with shears a, b drawn by shear()."""
    one = QQi(1)
    g = {}
    for key in [v for v, _ in graph.vertices] + list(graph.edge_ids):
        a, b = shear(), shear()
        g[key] = ((one + a * b, a), (b, one))
    return g


def shear_gauge(graph, seed, dens=(2, 3)):
    """Seeded shear gauge whose shears have non-zero imaginary part, real
    parts over dens[0] and imaginary parts over dens[1]."""
    rng = random.Random(seed)
    return _gauge_of_shears(graph, lambda: QQi(Fraction(rng.randint(-3, 3), dens[0]),
                                               Fraction(rng.choice((-1, 1)), dens[1])))


_PART = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12))


@st.composite
def shear_gauges(draw, graph):
    """Shear gauge with Gaussian-rational shears whose parts have
    denominators up to 12."""
    return _gauge_of_shears(graph, lambda: QQi(draw(_PART), draw(_PART)))


def line_presentation(name, vertices, pairs):
    """The presentation of a trivalent graph drawn with its vertices on a
    line in the given order, each vertex's half-edges leaving upward in slot
    order and every edge an arc above the line: vertices are (id, three
    half-edges), pairs are (edge id, its two half-edges), each edge's left
    half-edge is at the earlier slot, and the crossings are the pairs of
    edges whose slot arcs interleave."""
    slot = {h: s for s, h in enumerate(h for _, hs in vertices for h in hs)}
    edges = [(e, *sorted(pair, key=slot.get)) for e, pair in pairs]
    draft = Graph(name, vertices, edges, [])
    return Graph(name, vertices, edges, interleaving_crossings(draft))


def random_presentation(n_vertices, seed, loops=True):
    """A connected trivalent presentation on n_vertices (even) vertices,
    drawn by random.Random(seed): a random perfect matching of the 3V slots
    (multi-edges allowed, loops unless loops is false), redrawn until the
    graph is connected, as a line presentation."""
    rng = random.Random(seed)
    n = 3 * n_vertices
    while True:
        order = list(range(n))
        rng.shuffle(order)
        arcs = [order[i:i + 2] for i in range(0, n, 2)]
        if not loops and any(a // 3 == b // 3 for a, b in arcs):
            continue
        reached = {0}
        for _ in range(n_vertices):
            reached |= {s // 3 for arc in arcs if {s // 3 for s in arc} & reached for s in arc}
        if len(reached) == n_vertices:
            break
    vertices = [(f"v{i}", tuple(f"h{s}" for s in range(3 * i, 3 * i + 3)))
                for i in range(n_vertices)]
    return line_presentation("presentation", vertices,
                             [(f"e{i}", (f"h{a}", f"h{b}")) for i, (a, b) in enumerate(arcs)])


@st.composite
def presentations(draw, max_vertices):
    """random_presentation on an even V <= max_vertices vertices and a drawn
    seed."""
    return random_presentation(draw(st.sampled_from(range(2, max_vertices + 1, 2))),
                               draw(st.integers(0, 2**32 - 1)))


def prism_graph(n):
    """The n-gonal prism (V = 2n) in its planar rotation system, genus 0:
    the outer cycle u1..un, the inner cycle w1..wn and the spokes ui-wi,
    each vertex's half-edges in counterclockwise order, drawn as a line
    presentation with the vertices in the order u1..un, wn..w1."""
    def vertex(x, i, *nbrs):
        return f"{x}{i}", tuple(f"{x}{i}_{y}" for y in nbrs)

    def nxt(i, step):
        return (i - 1 + step) % n + 1

    us = [vertex("u", i, f"u{nxt(i, 1)}", f"w{i}", f"u{nxt(i, -1)}") for i in range(1, n + 1)]
    ws = [vertex("w", i, f"u{i}", f"w{nxt(i, 1)}", f"w{nxt(i, -1)}") for i in range(n, 0, -1)]
    pairs = []
    for i in range(1, n + 1):
        j = nxt(i, 1)
        pairs += [(f"t{i}", (f"u{i}_u{j}", f"u{j}_u{i}")), (f"b{i}", (f"w{i}_w{j}", f"w{j}_w{i}")),
                  (f"s{i}", (f"u{i}_w{i}", f"w{i}_u{i}"))]
    return line_presentation(f"prism{n}", us + ws, pairs)


def graph_obj(graph) -> dict:
    """The graph-file object of graph, the inverse of Graph.from_obj."""
    return {
        "name": graph.name,
        "vertices": [{"id": v, "halfedges": list(hs)} for v, hs in graph.vertices],
        "edges": [{"id": e, "left": l, "right": r} for e, l, r in graph.edges],
        "crossings": sorted(sorted(p) for p in graph.crossings),
    }


def interleaving_crossings(graph):
    """Canonical crossing set: arcs whose slot endpoints interleave."""
    arcs = {e: tuple(sorted((graph.halfedge_slot[l], graph.halfedge_slot[r])))
            for e, l, r in graph.edges}
    out = set()
    ids = graph.edge_ids
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            (a0, a1), (b0, b1) = arcs[ids[i]], arcs[ids[j]]
            if a0 > b0:
                (a0, a1), (b0, b1) = (b0, b1), (a0, a1)
            if a0 < b0 < a1 < b1:
                out.add(frozenset((ids[i], ids[j])))
    return frozenset(out)


# rational unit quaternions (w, x, y, z): exact points of SU(2)
_RATIONAL_QUATERNIONS = [
    (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), Fraction(0)),
    (Fraction(3, 5), Fraction(0), Fraction(4, 5), Fraction(0)),
    (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7), Fraction(0)),
    (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5), Fraction(4, 5)),
    (Fraction(4, 9), Fraction(4, 9), Fraction(7, 9), Fraction(0)),
]


def _quat_mul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def _quat_to_su2(q):
    w, x, y, z = q
    return ((QQi(w, -z), QQi(-y, -x)), (QQi(y, -x), QQi(w, z)))


def rand_su2_exact(rng):
    """Exact unitary determinant-1 matrix from random rational quaternions."""
    q = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(3):
        q = _quat_mul(q, rng.choice(_RATIONAL_QUATERNIONS))
    return _quat_to_su2(q)


def random_unitary_holonomy(graph, seed=0):
    from spinnets.graphs import Holonomy

    rng = random.Random(seed)
    return Holonomy(graph, {h: rand_su2_exact(rng) for h in graph.halfedges})


def build_cube_config(pos):
    """Cube graph dual to an octahedron with vertices pos[A0],...,pos[C1]:
    graph vertices are the 8 faces, edge vectors follow a consistent face
    orientation, colors are euclidean edge lengths (floats)."""
    faces = {ijk: (f"A{ijk[0]}", f"B{ijk[1]}", f"C{ijk[2]}")
             for ijk in itertools.product((0, 1), repeat=3)}

    def boundary(ijk):
        X, Y, Z = faces[ijk]
        if sum(ijk) % 2:
            X, Y = Y, X
        return [(X, Y), (Y, Z), (Z, X)]

    vorder = sorted(faces)
    vname = {ijk: "f" + "".join(map(str, ijk)) for ijk in vorder}
    recs, seen = [], set()
    for ijk in vorder:
        for axis in range(3):
            other = tuple(v if a != axis else 1 - v for a, v in enumerate(ijk))
            key = frozenset((ijk, other))
            if key in seen:
                continue
            seen.add(key)
            eid = f"e{axis}" + "".join(str(v) for a, v in enumerate(ijk) if a != axis)
            l, r = (ijk, other) if vorder.index(ijk) < vorder.index(other) else (other, ijk)
            recs.append((eid, l, r, axis))
    vertices = [(vname[ijk], tuple(f"{vname[ijk]}_{a}" for a in range(3))) for ijk in vorder]
    edges = [(e, f"{vname[l]}_{a}", f"{vname[r]}_{a}") for e, l, r, a in recs]
    g = Graph("cube", vertices, edges, [])
    vecs, cols = [], {}
    for eid, lf, rf, axis in recs:
        shared = {faces[lf][a] for a in range(3) if a != axis}
        for X, Y in boundary(lf):
            if {X, Y} == shared:
                d = pos[Y] - pos[X]
        length = float(np.linalg.norm(d))
        vecs.append(d / length)
        cols[eid] = length
    return g, np.array(vecs), cols
