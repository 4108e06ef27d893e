"""Trivalent graphs with planar presentations, colorings, holonomies and the
gauge action on holonomies.

A presentation fixes: the left-to-right vertex order, the order of the three
half-edges at each vertex (a rotation of the clockwise cyclic order), a
left/right half-edge per edge, and the set of crossing edge pairs.  All sign
conventions downstream are relative to this data, which is part of the input
format and never inferred.  One search builds a spanning tree, which
refuses a disconnected graph and gives the fundamental cycles (`Graph.cycles`)
that the planar series routes walk.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import gcd, lcm

from .errors import AdmissibilityError, InputError, RegimeError
from .rational import QQi, denominator, narrow, parse_exact

__all__ = [
    "Graph",
    "Holonomy",
    "load_graph",
    "read_input",
    "parse_json",
    "load_coloring",
    "check_coloring",
    "load_holonomy",
    "gauge_transform",
    "check_edge_keys",
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
        self._index()
        self._contraction_plan = None  # the evaluator's, built on first use
        self._trivial_holonomy = None  # Holonomy.trivial's, built on first use

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
        # the name is echoed in reports, so it must be a string
        if not isinstance(name, str):
            raise InputError(f"graph name {name!r} is not a string")
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

    def _index(self):
        """Fill the incidence maps and check the presentation as they fill."""
        self.vertex_index = {}
        self.vertex_of = {}  # half-edge -> its vertex id
        self.halfedge_slot = {}  # half-edge -> 3 * vertex position + slot
        for i, (v, hs) in enumerate(self.vertices):
            if v in self.vertex_index:
                raise InputError(f"duplicate vertex id {v!r}")
            self.vertex_index[v] = i
            if len(hs) != 3:
                raise InputError(f"vertex {v!r} must carry exactly 3 half-edges")
            for j, h in enumerate(hs):
                if h in self.vertex_of:
                    raise InputError(f"half-edge {h!r} appears at two vertex slots")
                self.vertex_of[h] = v
                self.halfedge_slot[h] = 3 * i + j
        self.edge_index = {}
        self.edge_by_id = {}
        self.edge_of = {}  # half-edge -> (its edge id, "left" or "right")
        for e, l, r in self.edges:
            if e in self.edge_index:
                raise InputError(f"duplicate edge id {e!r}")
            # one gauge map keys both, so an id may name one or the other
            if e in self.vertex_index:
                raise InputError(f"edge id {e!r} is also a vertex id")
            self.edge_index[e] = len(self.edge_index)
            self.edge_by_id[e] = (l, r)
            for h, side in ((l, "left"), (r, "right")):
                if h not in self.vertex_of:
                    raise InputError(f"edge {e!r} references unknown half-edge {h!r}")
                if h in self.edge_of:
                    raise InputError(f"half-edge {h!r} appears in two edges")
                self.edge_of[h] = (e, side)
        # the edges cover the 3V half-edges, two each, so 2E = 3V and V is even
        if len(self.edge_of) != len(self.vertex_of):
            missing = self.vertex_of.keys() - self.edge_of.keys()
            raise InputError(f"half-edges not covered by edges: {sorted(missing)}")
        for pair in self.crossings:
            if len(pair) != 2 or not pair <= self.edge_index.keys():
                raise InputError(f"bad crossing pair {sorted(pair)}")
        # left half-edge must sit at the earlier vertex (loops: earlier slot)
        for e, l, r in self.edges:
            if self.halfedge_slot[l] > self.halfedge_slot[r]:
                raise InputError(f"edge {e!r}: left half-edge is right of its partner")
        # each edge's end-vertex positions, left first; a search from vertex
        # 0, path[u] the edge mask of u's tree path, must reach every vertex
        # (the empty graph keeps vertex 0's entry)
        self.ends = tuple((self.halfedge_slot[l] // 3, self.halfedge_slot[r] // 3)
                          for _, l, r in self.edges)
        adj = [[] for _ in self.vertices]
        for i, (u, w) in enumerate(self.ends):
            adj[u].append((w, i))
            adj[w].append((u, i))
        path, stack = {0: 0}, [0] if adj else []
        while stack:
            u = stack.pop()
            for w, i in adj[u]:
                if w not in path:
                    path[w] = path[u] | 1 << i
                    stack.append(w)
        if len(path) != len(self.vertices):
            raise InputError("graph is not connected")
        # per edge off the tree (a loop included), in edge order, the edge
        # mask of its cycle: its ends' paths and itself, empty on the tree
        self.cycles = tuple(c for i, (u, w) in enumerate(self.ends)
                            if (c := path[u] ^ path[w] ^ 1 << i))

        self.halfedges = tuple(self.vertex_of)
        self.edge_ids = tuple(self.edge_index)
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
        # genus of the rotation system, (2 - V + E - F) / 2: its F faces are
        # the orbits of "follow the edge, then turn to the next slot"
        partner = {}
        for l, r in self.edge_by_id.values():
            partner[l], partner[r] = r, l
        seen, faces = set(), 0
        for h in self.halfedges:
            faces += h not in seen
            while h not in seen:
                seen.add(h)
                s = self.halfedge_slot[partner[h]]
                h = self.halfedges[s - s % 3 + (s + 1) % 3]
        self.genus = (2 - len(self.vertices) + len(self.edges) - faces) // 2

    # -- queries -----------------------------------------------------------
    def angles_at_halfedge(self, h):
        """Ids of the two angles containing half-edge h."""
        return self._angles_at[h]

    def __repr__(self):
        return f"Graph({self.name!r}, V={len(self.vertices)}, E={len(self.edges)})"


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def vertex_colors(graph: Graph, coloring: dict) -> list:
    """Per vertex, the colors of the edges at its three slots."""
    try:
        return [(coloring[a], coloring[b], coloring[c]) for a, b, c in graph.vertex_edges]
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
    """Yield admissible colorings with per-edge bound and/or total-sum bound,
    in lexicographic order of their colors in edge order.  An edge that
    closes a vertex (comes last of its edges) takes every second color from
    max |a - b| to min (a + b), a and b the other two colors at each vertex it
    closes, whose parities must agree; a vertex it closes as a loop (its edge
    at two slots) tests its triple."""
    if max_color is None and max_total is None:
        raise InputError("need max_color or max_total")
    cap = max_color if max_color is not None else max_total
    edges = graph.edge_ids
    # per edge, the other two edge indices of each vertex it closes, and the
    # third edge index of each vertex it closes as a loop
    pairs = [[] for _ in edges]
    loops = [[] for _ in edges]
    for es in graph.vertex_edges:
        tri = sorted(graph.edge_index[e] for e in es)
        i = tri.pop()
        if tri[1] == i:
            loops[i].append(tri[0])
        else:
            pairs[i].append(tri)
    # the colorings of the first i edges, in order, extended one edge at a time
    level = [((), 0)]
    for i in range(len(edges)):
        nxt = []
        for cols, total in level:
            lo, top, step = 0, cap, 1
            if max_total is not None:
                top = min(top, max_total - total)
            if pairs[i]:  # the ranges at the vertices it closes, of one parity
                step, parities = 2, 0
                for x, y in pairs[i]:
                    a, b = cols[x], cols[y]
                    lo, top = max(lo, abs(a - b)), min(top, a + b)
                    parities |= 1 << (a + b) % 2
                if parities == 3:
                    continue
            colors = range(lo, top + 1, step)
            if loops[i]:
                colors = [c for c in colors
                          if all(admissible_triple(cols[x], c, c) for x in loops[i])]
            nxt += [(cols + (c,), total + c) for c in colors]
        level = nxt
    for cols, _ in level:
        yield dict(zip(edges, cols))


# ---------------------------------------------------------------------------
# holonomies
# ---------------------------------------------------------------------------

def _rows2(m, where: str) -> tuple:
    """The rows, as tuples, of a list or tuple of two 2-item lists or tuples."""
    if not (isinstance(m, (list, tuple)) and len(m) == 2
            and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in m)):
        raise InputError(f"{where} is not a 2x2 matrix")
    return tuple(tuple(row) for row in m)


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _adj2(m):
    """Adjugate of a 2x2 matrix: its inverse when the determinant is 1."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _cleared_adjugate(m):
    """(D, adj(D m)) for a 2x2 matrix of QQi cells, D the least positive
    integer that makes D m a Gaussian-integer matrix: adj(D m) has QQi cells
    with int parts."""
    den = lcm(*(denominator(x) for row in m for x in row))
    return den, _adj2(tuple(tuple(QQi(x.re.numerator * (den // x.re.denominator),
                                      x.im.numerator * (den // x.im.denominator))
                                  for x in row) for row in m))


def _mul2(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _complex(where: str, *parts) -> complex:
    """complex(*parts), whose parts may be too large for a float."""
    try:
        return complex(*parts)
    except OverflowError:
        raise InputError(f"a scalar in {where} is beyond floating-point range") from None


def _scalar(s, where: str):
    """A matrix cell: an exact scalar (QQi, int, Fraction or exact string) as
    a QQi; a float, complex or [re, im] pair of real numbers as a finite
    complex.  A bool, or anything else, is refused rather than read as a
    number."""
    if isinstance(s, (float, complex)):
        z = complex(s)
    elif isinstance(s, (list, tuple)) and len(s) == 2 and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in s):
        z = _complex(where, *s)
    elif isinstance(s, bool) or not isinstance(s, (QQi, int, Fraction, str)):
        raise InputError(f"bad scalar {s!r} in {where}")
    else:
        return parse_exact(s)
    if not cmath.isfinite(z):
        raise InputError(f"non-finite scalar {s!r} in {where}")
    return z


def _exact_scalar(s, where: str) -> QQi:
    """A cell that `_scalar` reads as exact, as a QQi."""
    x = _scalar(s, where)
    if type(x) is not QQi:
        raise InputError(f"bad scalar {s!r} in {where}")
    return x


class Holonomy:
    """Per-half-edge 2x2 determinant-1 matrices.  The regime is read from
    the cells: a holonomy is exact when every cell is an exact scalar, each
    held as a QQi, and floating otherwise, each cell held as a complex.  A
    value object: its angle forms are derived from `entries` and kept, so
    `entries` must not change after construction."""

    def __init__(self, graph: Graph, entries: dict):
        if not isinstance(entries, dict):
            raise InputError("holonomy must be a JSON object {half-edge: 2x2 matrix}")
        unknown = entries.keys() - graph.vertex_of.keys()
        if unknown:
            raise InputError(f"holonomy names unknown half-edges {sorted(unknown, key=str)}")
        cells = {h: tuple(tuple(_scalar(s, f"holonomy at {h!r}") for s in row)
                          for row in _rows2(m, f"holonomy at {h!r}")) for h, m in entries.items()}
        self.exact = all(type(x) is QQi for m in cells.values() for row in m for x in row)
        self._forms = {}  # (g, h) -> angle_form(g, h)
        self._angle_powers = {}  # the evaluator's, per contraction plan, built on first use
        self.entries = {}
        for h in graph.halfedges:
            if h not in cells:
                raise InputError(f"holonomy misses half-edge {h!r}")
            rows = cells[h] if self.exact else tuple(
                tuple(_complex(f"holonomy at {h!r}", x) for x in row) for row in cells[h])
            d = _det2(rows)
            if self.exact and d != 1:
                raise InputError(f"holonomy at {h!r} has determinant {d!r}, not 1")
            # not <=, so that a determinant that overflows to nan is refused
            if not (self.exact or abs(d - 1.0) <= 1e-12):
                raise InputError(f"holonomy at {h!r} has |det-1| > 1e-12")
            self.entries[h] = rows

    @classmethod
    def trivial(cls, graph: Graph):
        """The graph's one trivial holonomy, which None stands for: kept on
        the graph from the first call, its angle forms and angle powers
        shared by every caller and read only."""
        if graph._trivial_holonomy is None:
            graph._trivial_holonomy = cls(graph, dict.fromkeys(graph.halfedges, ((1, 0), (0, 1))))
        return graph._trivial_holonomy

    def angle_form(self, g, h):
        """(coefficients, d) of Z_g W_h - Z_h W_g, (Z, W) = psi^{-1}(z, w), on
        z_g z_h, z_g w_h, w_g z_h and w_g w_h, times their common denominator d:
        Gaussian integers, int when real.  Exact holonomies only; kept per
        half-edge pair, so it holds on any presentation sharing the ids."""
        form = self._forms.get((g, h))
        if form is None:
            dg, ((a, b), (c, d)) = _cleared_adjugate(self.entries[g])
            dh, ((a2, b2), (c2, d2)) = _cleared_adjugate(self.entries[h])
            coeffs = (a * c2 - a2 * c, a * d2 - b2 * c, b * c2 - a2 * d, b * d2 - b2 * d)
            # the form's coefficients are coeffs / (dg dh), Gaussian integers
            # over dg dh; k cancels what dg dh shares with all their parts
            k = gcd(dg * dh, *(p for x in coeffs for p in (x.re, x.im)))
            form = self._forms[g, h] = (
                tuple(narrow(QQi(x.re // k, x.im // k)) for x in coeffs), dg * dh // k)
        return form

    def is_trivial(self):
        return self.exact and all(m == ((1, 0), (0, 1)) for m in self.entries.values())


def gauge_transform(graph: Graph, holonomy: Holonomy, g: dict) -> Holonomy:
    """Transformed connection: half-edge (e, v) maps to g_e psi_h g_v^{-1}.

    g maps every edge and vertex id, and nothing else, to a determinant-1
    matrix of exact scalars, read by the rule of exact holonomy cells."""
    if not holonomy.exact:
        raise RegimeError("gauge_transform needs an exact-regime holonomy")
    if not isinstance(g, dict):
        raise InputError("gauge map must be a dict {vertex or edge id: 2x2 matrix}")
    mats = {}
    for key, m in g.items():
        if key not in graph.vertex_index and key not in graph.edge_index:
            raise InputError(f"gauge map names {key!r}, which is no vertex or edge id")
        where = f"gauge element at {key!r}"
        rows = tuple(tuple(_exact_scalar(x, where) for x in row) for row in _rows2(m, where))
        det = _det2(rows)
        if det != 1:
            raise InputError(f"{where} has determinant {det!r}, not 1")
        mats[key] = rows
    entries = {}
    for h in graph.halfedges:
        e, v = graph.edge_of[h][0], graph.vertex_of[h]
        if e not in mats or v not in mats:
            missing = f"edge {e!r}" if e not in mats else f"vertex {v!r}"
            raise InputError(f"gauge map misses {missing}")
        entries[h] = _mul2(_mul2(mats[e], holonomy.entries[h]), _adj2(mats[v]))
    return Holonomy(graph, entries)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def read_input(path) -> bytes:
    """The bytes of an input file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path, data: bytes | None = None):
    """The JSON value in the file at path, parsed from `data` when the caller
    has read its bytes already.  The text must be UTF-8 with no byte-order
    mark."""
    if data is None:
        data = read_input(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_json(text, str(path))


def parse_json(text: str, source: str):
    """The JSON value in text; `source` names it in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise InputError(f"{source}: {exc}") from exc
    except RecursionError:
        raise InputError(f"{source} nests arrays or objects too deeply") from None


def load_graph(path, data: bytes | None = None) -> Graph:
    """The graph in the file at path; `data`, when given, is that file's
    bytes, so a caller that also digests them reads the file once."""
    return Graph.from_obj(_load_json(path, data))


def check_edge_keys(obj, graph: Graph, what: str):
    """Raise InputError unless the keys of obj are exactly the graph's edge
    ids; `what` names obj in the message."""
    for e in graph.edge_ids:
        if e not in obj:
            raise InputError(f"{what} misses edge {e!r}")
    for e in obj:
        if e not in graph.edge_index:
            raise InputError(f"{what} names unknown edge {e!r}")


def check_coloring(obj, graph: Graph, source: str) -> dict:
    """Validate a parsed coloring {edge: non-negative int} whose keys are
    exactly the graph's edge ids.  `source` prefixes errors."""
    if not isinstance(obj, dict):
        raise InputError(f"{source}: coloring must be an object {{edge: int}}")
    for e, c in obj.items():
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise InputError(f"{source}: color of {e!r} must be a non-negative integer")
    check_edge_keys(obj, graph, f"{source}: coloring")
    return obj


def load_coloring(path, graph: Graph) -> dict:
    return check_coloring(_load_json(path), graph, path)


def load_holonomy(path, graph: Graph, data: bytes | None = None) -> Holonomy:
    """The holonomy in the file at path; `data` as for `load_graph`."""
    return Holonomy(graph, _load_json(path, data))
