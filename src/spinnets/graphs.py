"""Trivalent graphs with planar presentations, colorings and holonomies.

A presentation fixes: the left-to-right vertex order, the order of the three
half-edges at each vertex (a rotation of the clockwise cyclic order), a
left/right half-edge per edge, and the set of crossing edge pairs.  All sign
conventions downstream are relative to this data, which is part of the input
format and never inferred.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

from .errors import AdmissibilityError, InputError
from .rational import QQi, parse_exact

__all__ = [
    "Graph",
    "Holonomy",
    "load_graph",
    "load_coloring",
    "check_coloring",
    "load_holonomy",
    "vertex_colors",
    "admissible_triple",
    "is_admissible",
    "internal_coloring",
    "crossing_sign",
    "admissible_colorings",
]


class Graph:
    """Immutable trivalent graph with a planar presentation."""

    def __init__(self, name, vertices, edges, crossings):
        # vertices: list of (vertex_id, (h0, h1, h2)); edges: list of
        # (edge_id, left_halfedge, right_halfedge); crossings: iterable of
        # 2-element edge-id collections.
        self.name = name
        self.vertices = tuple((v, tuple(hs)) for v, hs in vertices)
        self.edges = tuple((e, l, r) for e, l, r in edges)
        self.crossings = frozenset(frozenset(p) for p in crossings)
        self._validate()
        self._index()

    # -- construction ----------------------------------------------------
    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("graph must be a JSON object")
        try:
            name = obj.get("name", "graph")
            vertices = [(v["id"], v["halfedges"]) for v in obj["vertices"]]
            edges = [(e["id"], e["left"], e["right"]) for e in obj["edges"]]
            crossings = obj.get("crossings", [])
        except KeyError as exc:
            raise InputError(f"malformed graph object: missing {exc}") from exc
        except TypeError as exc:
            # an entry that is not an object, or vertices or edges not a list
            raise InputError(f"malformed graph object: wrong type ({exc})") from exc
        for v, hs in vertices:
            if not isinstance(hs, list):
                raise InputError(f"half-edges of vertex {v!r} must be a list, got {hs!r}")
        if not (isinstance(crossings, list)
                and all(isinstance(p, list) and len(p) == 2 for p in crossings)):
            raise InputError(f"crossings must be a list of edge-id pairs, got {crossings!r}")
        # ids are compared and hashed below, so each must be a string
        ids = [v for v, _ in vertices] + [h for _, hs in vertices for h in hs]
        for x in ids + [x for e in edges for x in e] + [e for p in crossings for e in p]:
            if not isinstance(x, str):
                raise InputError(f"id or half-edge {x!r} is not a string")
        if len({frozenset(p) for p in crossings}) != len(crossings):
            raise InputError(f"a crossing pair is listed twice in {crossings!r}")
        return cls(name, vertices, edges, crossings)

    def to_obj(self):
        return {
            "name": self.name,
            "vertices": [{"id": v, "halfedges": list(hs)} for v, hs in self.vertices],
            "edges": [{"id": e, "left": l, "right": r} for e, l, r in self.edges],
            "crossings": sorted(sorted(p) for p in self.crossings),
        }

    def _validate(self):
        seen_v = set()
        in_vertex = {}
        for v, hs in self.vertices:
            if v in seen_v:
                raise InputError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
            if len(hs) != 3:
                raise InputError(f"vertex {v!r} must carry exactly 3 half-edges")
            for h in hs:
                if h in in_vertex:
                    raise InputError(f"half-edge {h!r} appears at two vertex slots")
                in_vertex[h] = v
        seen_e = set()
        in_edge = set()
        for e, l, r in self.edges:
            if e in seen_e:
                raise InputError(f"duplicate edge id {e!r}")
            seen_e.add(e)
            for h in (l, r):
                if h not in in_vertex:
                    raise InputError(f"edge {e!r} references unknown half-edge {h!r}")
                if h in in_edge:
                    raise InputError(f"half-edge {h!r} appears in two edges")
                in_edge.add(h)
        if in_edge != set(in_vertex):
            missing = set(in_vertex) - in_edge
            raise InputError(f"half-edges not covered by edges: {sorted(missing)}")
        nv, ne = len(self.vertices), len(self.edges)
        if 3 * nv != 2 * ne or nv % 2:
            raise InputError(f"counts violate #V=2N, #E=3N: V={nv}, E={ne}")
        for pair in self.crossings:
            if len(pair) != 2 or not pair <= seen_e:
                raise InputError(f"bad crossing pair {sorted(pair)}")
        # left half-edge must sit at the earlier vertex (loops: earlier slot)
        hslot = {}
        for i, (v, hs) in enumerate(self.vertices):
            for j, h in enumerate(hs):
                hslot[h] = 3 * i + j
        for e, l, r in self.edges:
            if hslot[l] > hslot[r]:
                raise InputError(f"edge {e!r}: left half-edge is right of its partner")
        # connectivity
        parent = {v: v for v, _ in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e, l, r in self.edges:
            a, b = find(in_vertex[l]), find(in_vertex[r])
            if a != b:
                parent[a] = b
        roots = {find(v) for v, _ in self.vertices}
        if len(roots) != 1:
            raise InputError("graph is not connected")
        self._in_vertex = in_vertex
        self._hslot = hslot

    def _index(self):
        self.halfedges = tuple(h for _, hs in self.vertices for h in hs)
        self.halfedge_slot = self._hslot
        self.vertex_of = dict(self._in_vertex)
        self.vertex_index = {v: i for i, (v, _) in enumerate(self.vertices)}
        self.edge_ids = tuple(e for e, _, _ in self.edges)
        self.edge_index = {e: i for i, e in enumerate(self.edge_ids)}
        self.edge_by_id = {e: (l, r) for e, l, r in self.edges}
        self.edge_of = {}
        for e, l, r in self.edges:
            self.edge_of[l] = (e, "left")
            self.edge_of[r] = (e, "right")
        # the edge at each slot of each vertex
        self.vertex_edges = tuple(tuple(self.edge_of[h][0] for h in hs)
                                  for _, hs in self.vertices)
        # angles: per vertex, half-edge position pairs (0,1), (1,2), (0,2)
        angles = []
        self._angles_at = {h: () for h in self.halfedges}
        for v, hs in self.vertices:
            for (i, j) in ((0, 1), (1, 2), (0, 2)):
                aid = f"{v}:{i}{j}"
                angles.append((aid, v, (i, j), (hs[i], hs[j])))
                for h in (hs[i], hs[j]):
                    self._angles_at[h] += (aid,)
        self.angles = tuple(angles)
        self.angle_ids = tuple(a[0] for a in angles)
        self.N = len(self.edges) - len(self.vertices)

    # -- queries -----------------------------------------------------------
    def angles_at_halfedge(self, h):
        """Ids of the two angles containing half-edge h."""
        return self._angles_at[h]

    def interleaving_crossings(self):
        """Canonical crossing set: arcs whose slot endpoints interleave."""
        arcs = {e: tuple(sorted((self.halfedge_slot[l], self.halfedge_slot[r])))
                for e, l, r in self.edges}
        out = set()
        ids = self.edge_ids
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                (a0, a1), (b0, b1) = arcs[ids[i]], arcs[ids[j]]
                if a0 > b0:
                    (a0, a1), (b0, b1) = (b0, b1), (a0, a1)
                if a0 < b0 < a1 < b1:
                    out.add(frozenset((ids[i], ids[j])))
        return frozenset(out)

    def __repr__(self):
        return f"Graph({self.name!r}, V={len(self.vertices)}, E={len(self.edges)})"


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def vertex_colors(graph: Graph, coloring: dict) -> list:
    """Per vertex, the colors of the edges at its three slots."""
    try:
        return [tuple(coloring[e] for e in es) for es in graph.vertex_edges]
    except KeyError as exc:
        raise InputError(f"coloring misses edge {exc.args[0]!r}") from None


def admissible_triple(a: int, b: int, c: int) -> bool:
    """Even sum and the three triangle inequalities (which force a, b, c >= 0)."""
    return not (a + b + c) % 2 and a <= b + c and b <= a + c and c <= a + b


def is_admissible(graph: Graph, coloring: dict) -> bool:
    """Parity and all three triangle inequalities at every vertex."""
    return all(admissible_triple(*cols) for cols in vertex_colors(graph, coloring))


def internal_coloring(graph: Graph, coloring: dict) -> dict:
    """Angle coloring {angle_id: (c_i + c_j - c_k) / 2}."""
    cols = vertex_colors(graph, coloring)
    out = {}
    for aid, v, (i, j), _ in graph.angles:
        c = cols[graph.vertex_index[v]]
        t = c[i] + c[j] - c[3 - i - j]
        if t < 0 or t % 2:
            raise AdmissibilityError(
                f"angle {aid} would get color {t}/2; coloring not admissible")
        out[aid] = t // 2
    return out


def crossing_sign(graph: Graph, coloring: dict) -> int:
    """Product over crossing pairs of (-1)^(c_e * c_f)."""
    s = 1
    for pair in graph.crossings:
        e, f = tuple(pair)
        if (coloring[e] * coloring[f]) % 2:
            s = -s
    return s


def admissible_colorings(graph: Graph, max_color=None, max_total=None):
    """Yield admissible colorings with per-edge bound and/or total-sum bound."""
    if max_color is None and max_total is None:
        raise InputError("need max_color or max_total")
    cap = max_color if max_color is not None else max_total
    edges = graph.edge_ids
    # each vertex's edge indices, checked once: when its last edge gets a color
    closing = [[] for _ in edges]
    for es in graph.vertex_edges:
        tri = tuple(graph.edge_index[e] for e in es)
        closing[max(tri)].append(tri)
    cols = [0] * len(edges)

    def rec(i, total):
        if i == len(edges):
            yield {e: cols[j] for j, e in enumerate(edges)}
            return
        top = cap
        if max_total is not None:
            top = min(top, max_total - total)
        for c in range(top + 1):
            cols[i] = c
            if all(admissible_triple(cols[x], cols[y], cols[z]) for x, y, z in closing[i]):
                yield from rec(i + 1, total + c)
        cols[i] = 0

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# holonomies
# ---------------------------------------------------------------------------

def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class Holonomy:
    """Per-half-edge 2x2 determinant-1 matrices, exact or floating."""

    def __init__(self, graph: Graph, entries: dict, exact: bool):
        self.exact = exact
        mats = {}
        for h in graph.halfedges:
            if h not in entries:
                raise InputError(f"holonomy misses half-edge {h!r}")
            m = entries[h]
            rows = tuple(tuple(row) for row in m)
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise InputError(f"holonomy at {h!r} is not a 2x2 matrix")
            d = _det2(rows)
            if exact:
                if d != QQi(1):
                    raise InputError(f"holonomy at {h!r} has determinant {d!r}, not 1")
            else:
                if abs(complex(d) - 1.0) > 1e-12:
                    raise InputError(f"holonomy at {h!r} has |det-1| > 1e-12")
            mats[h] = rows
        self.entries = mats

    @classmethod
    def trivial(cls, graph: Graph):
        one, zero = QQi(1), QQi(0)
        return cls(graph, {h: ((one, zero), (zero, one)) for h in graph.halfedges}, True)

    @classmethod
    def diagonal(cls, graph: Graph, t: dict):
        """Diagonal exact holonomy diag(t_h, 1/t_h) from nonzero rationals."""
        entries = {}
        zero = QQi(0)
        for h in graph.halfedges:
            if h not in t:
                raise InputError(f"t misses half-edge {h!r}")
            th = Fraction(t[h])
            if not th:
                raise InputError(f"t[{h!r}] must be nonzero")
            entries[h] = ((QQi(th), zero), (zero, QQi(1 / th)))
        return cls(graph, entries, True)

    @classmethod
    def from_obj(cls, graph: Graph, obj):
        if not isinstance(obj, dict):
            raise InputError("holonomy must be a JSON object {half-edge: 2x2 matrix}")
        unknown = set(obj) - set(graph.halfedges)
        if unknown:
            raise InputError(f"holonomy names unknown half-edges {sorted(unknown)}")
        exact = True
        parsed = {}
        for h, m in obj.items():
            if not (isinstance(m, (list, tuple)) and len(m) == 2
                    and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in m)):
                raise InputError(f"holonomy at {h!r} is not a 2x2 matrix")
            rows = []
            for row in m:
                cells = []
                for s in row:
                    if isinstance(s, (int, str)) and not isinstance(s, bool):
                        cells.append(parse_exact(s))
                        continue
                    # a float, or a [re, im] pair of real numbers
                    parts = s if isinstance(s, (list, tuple)) else (s, 0.0)
                    if len(parts) != 2 or not all(
                            isinstance(t, (int, float)) and not isinstance(t, bool) for t in parts):
                        raise InputError(f"bad scalar {s!r} in holonomy at {h!r}")
                    z = complex(float(parts[0]), float(parts[1]))
                    if not cmath.isfinite(z):
                        raise InputError(f"non-finite scalar {s!r} in holonomy at {h!r}")
                    exact = False
                    cells.append(z)
                rows.append(tuple(cells))
            parsed[h] = tuple(rows)
        if not exact:
            parsed = {h: tuple(tuple(complex(x) for x in row) for row in m)
                      for h, m in parsed.items()}
        return cls(graph, parsed, exact)

    def matrix(self, h):
        return self.entries[h]

    def inverse_matrix(self, h):
        # determinant is 1, so the inverse is the adjugate
        (a, b), (c, d) = self.entries[h]
        return ((d, -b), (-c, a))

    def is_trivial(self):
        if not self.exact:
            return False
        one, zero = QQi(1), QQi(0)
        return all(m == ((one, zero), (zero, one)) for m in self.entries.values())

    def to_float(self, graph: Graph):
        if not self.exact:
            return self
        ent = {h: tuple(tuple(complex(x) for x in row) for row in m)
               for h, m in self.entries.items()}
        return Holonomy(graph, ent, False)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_graph(path) -> Graph:
    return Graph.from_obj(_load_json(path))


def check_coloring(obj, graph: Graph | None, source: str) -> dict:
    """Validate a parsed coloring {edge: non-negative int}; with a graph, its
    keys must be exactly the graph's edge ids.  `source` prefixes errors."""
    if not isinstance(obj, dict):
        raise InputError(f"{source}: coloring must be an object {{edge: int}}")
    for e, c in obj.items():
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise InputError(f"{source}: color of {e!r} must be a non-negative integer")
    if graph is not None:
        missing = set(graph.edge_ids) - set(obj)
        if missing:
            raise InputError(f"{source}: coloring misses edges {sorted(missing)}")
        unknown = set(obj) - set(graph.edge_ids)
        if unknown:
            raise InputError(f"{source}: coloring names unknown edges {sorted(unknown)}")
    return obj


def load_coloring(path, graph: Graph | None = None) -> dict:
    return check_coloring(_load_json(path), graph, path)


def load_holonomy(path, graph: Graph) -> Holonomy:
    return Holonomy.from_obj(graph, _load_json(path))
