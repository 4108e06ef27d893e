"""Exact spin-network evaluation with holonomy.

The value is a full contraction: a product over vertices of three bracket
factors (variables pre-composed with the inverse holonomy of each half-edge),
hit by one antisymmetrized derivative operator (1/c!^2)(d_z1 d_w2 - d_z2 d_w1)^c
per edge of color c, times the crossing sign.  The i-normalized vertex/edge
factors contribute a global scalar i^(2*sum c_e) = (-1)^(sum c_e), which is
tracked outside the polynomial arithmetic.

The contraction runs on Gaussian integers for every exact holonomy, and the
value is divided once.  The bracket factor of each angle a is its angle
form, scaled by the common denominator d_a of its coefficients, so these are
ints (real integer ones, as for the trivial holonomy) or QQi with int parts;
`form_power` raises it to the angle's color in one binomial pass, and
`apply_edge_operator` contracts each edge e with c_e! times its operator,
on integer weights and without dividing.  The value is homogeneous of
degree c_a in the bracket of each angle a, so the final constant is divided
once by prod_e c_e! * prod_a d_a^{c_a}.  Every coloring contracts its
nonzero-color edges in one order planned per graph (`_order`): a vertex
set grown one vertex at a time across the smallest cut, so the factors
contracted so far, which meet the rest only at the cut, stay small.  A
contraction whose term count could pass `polyring.TERM_BUDGET` raises
ResourceError before it is formed.

What depends on the graph alone is built once and kept on it (`_Plan`):
the namespace, each angle's edges, keys and half-edges, and the edges in
their planned order.  Each holonomy, None standing for the graph's one
trivial holonomy (`Holonomy.trivial`), keeps its angle powers per plan,
which every coloring evaluated under it looks up and shares read-only.  A
coloring's own work is its angle colors (admissibility is read from them:
every one a non-negative integer), the lookups, and the contractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .errors import AdmissibilityError, InputError, RegimeError
from .graphs import (Graph, Holonomy, admissible_triple, check_coloring, crossing_sign,
                     internal_coloring, is_admissible, vertex_colors)
from .polyring import MPoly, Namespace, apply_edge_operator, form_power
from .rational import QQi, div_exact

__all__ = [
    "eval_spin_network",
    "theta_value",
    "renormalize",
    "bracket_square",
]

_MAX_COLOR = 60  # monomial packing allows per-variable exponents < 64


def _zvar(h):
    return "z@" + h


def _wvar(h):
    return "w@" + h


def _order(graph: Graph) -> list:
    """The edge indices in the order of a vertex set S grown across the
    smallest cut, a linear layout of small cutwidth in the style of Dudek,
    Duenas-Osorio & Vardi (arXiv:1908.04381) and Gray & Kourtis (Quantum 5,
    410, 2021).  From each start vertex, S grows one vertex at a time: the
    next is the neighbor of S that leaves the fewest edges across the cut
    (S, rest), ties to the one with the most edges into S, then the lowest
    index, and it emits its edges into S, then its loops.  The factors
    contracted so far meet the rest only at the cut's edges, so a small cut
    keeps them small.  Of the V growths the one kept has the least largest
    cut, then the least sum of 3^cut, then the earliest start.  Every cost
    is an int of the graph alone, so no clock or random draw decides the
    order."""
    nbrs = [[] for _ in graph.vertices]  # (neighbor, edge) per non-loop edge
    loops = [[] for _ in graph.vertices]
    for i, (u, w) in enumerate(graph.ends):
        if u == w:
            loops[u].append(i)
        else:
            nbrs[u].append((w, i))
            nbrs[w].append((u, i))

    def grow(start):
        into = [0] * len(nbrs)  # each vertex's edges into S
        inside = [False] * len(nbrs)
        frontier, order, cut, top, cost = set(), [], 0, 0, 0
        v = start
        while True:
            inside[v] = True
            frontier.discard(v)
            cut += len(nbrs[v]) - 2 * into[v]
            top, cost = max(top, cut), cost + 3 ** cut
            order += [i for w, i in nbrs[v] if inside[w]] + loops[v]
            for w, _ in nbrs[v]:
                if not inside[w]:
                    into[w] += 1
                    frontier.add(w)
            if not frontier:
                return top, cost, start, order
            v = min(frontier, key=lambda w: (len(nbrs[w]) - 2 * into[w], -into[w], w))

    return min(map(grow, range(len(nbrs))))[3]


class _Plan:
    """What a contraction needs of a graph and no coloring: the namespace
    of the z and w variables; each angle's two edges and the third edge at
    its vertex, whose colors give the angle's color, its half-edges and the
    keys of its four monomials z_g z_h, z_g w_h, w_g z_h and w_g w_h; each
    edge's variable names, with the edges in their planned order.  A factor
    or an edge carries a bitmask of the half-edges it touches (bit i for
    graph.halfedges[i]).  Built once per graph and kept on it: it depends
    only on the graph's half-edges, angles and edges.

    A holonomy keeps one table of `power`'s entries per plan it meets, in
    its `_angle_powers`, so two presentations never read each other's: at
    most one per angle and color 1.._MAX_COLOR, built on first use and then
    shared by every evaluation under it, so read and never written.
    """

    __slots__ = ("ns", "angles", "edges")

    def __init__(self, graph: Graph):
        bit = {h: 1 << i for i, h in enumerate(graph.halfedges)}
        self.ns = ns = Namespace(x for h in graph.halfedges for x in (_zvar(h), _wvar(h)))
        angles = []
        for _, v, (i, j), (g, h) in graph.angles:
            es = graph.vertex_edges[graph.vertex_index[v]]
            zg, wg, zh, wh = (1 << ns.shift(x) for x in (_zvar(g), _wvar(g), _zvar(h), _wvar(h)))
            angles.append((es[i], es[j], es[3 - i - j], g, h, bit[g] | bit[h],
                           (zg + zh, zg + wh, wg + zh, wg + wh)))
        self.angles = tuple(angles)
        edges = [(e, bit[l] | bit[r], (_zvar(l), _wvar(l), _zvar(r), _wvar(r)))
                 for e, l, r in graph.edges]
        self.edges = tuple(edges[i] for i in _order(graph))

    def power(self, a: int, n: int, holonomy: Holonomy) -> tuple:
        """(d**n, form_power of angle a's form under an exact holonomy at
        color n), the form's coefficients scaled by their denominator d."""
        table = holonomy._angle_powers.setdefault(self, {})
        found = table.get((a, n))
        if found is None:
            coeffs, d = holonomy.angle_form(*self.angles[a][3:5])
            found = table[a, n] = (d ** n, MPoly(self.ns, form_power(coeffs, self.angles[a][6], n)))
        return found


def _plan(graph: Graph) -> _Plan:
    plan = graph._contraction_plan
    if plan is None:
        plan = graph._contraction_plan = _Plan(graph)
    return plan


def eval_spin_network(graph: Graph, coloring: dict, holonomy: Holonomy | None = None) -> QQi:
    """Exact value of the spin network (0 for non-admissible colorings)."""
    check_coloring(coloring, graph, "coloring")
    for e in graph.edge_ids:
        if coloring[e] > _MAX_COLOR:
            raise InputError(f"color {coloring[e]} exceeds supported bound {_MAX_COLOR}")
    if holonomy is None:
        holonomy = Holonomy.trivial(graph)
    elif not holonomy.exact:
        raise RegimeError("exact evaluation needs an exact-regime holonomy")
    plan = _plan(graph)

    # the color (c_i + c_j - c_k) / 2 of each angle; the coloring is
    # admissible (parity and triangle inequalities at every vertex) exactly
    # when every one of them is a non-negative integer
    colors = []
    for ei, ej, ek, *_ in plan.angles:
        t = coloring[ei] + coloring[ej] - coloring[ek]
        if t < 0 or t & 1:
            return QQi(0)
        colors.append(t >> 1)

    # one bracket factor (d_a (Z_g W_h - Z_h W_g))^n per angle a = (g, h) of
    # color n, with the mask of the half-edges it touches; the value is
    # divided once by scale: prod_e c_e!, as each edge contraction is c_e!
    # times the edge's operator, and prod_a d_a^n for the scaled angle forms
    scale = prod(map(factorial, coloring.values()))
    factors = []  # (half-edge mask, polynomial)
    for a, n in enumerate(colors):
        if n:
            d, poly = plan.power(a, n, holonomy)
            scale *= d
            factors.append((plan.angles[a][5], poly))

    # a color-0 edge touches no factor; an edge of color c_e > 0 touches a
    # factor at each half-edge, whose two angles' colors sum to c_e
    for e, em, names in plan.edges:
        c = coloring[e]
        if not c:
            continue
        gathered, kept, involved = [], [], 0
        for f in factors:
            if f[0] & em:
                gathered.append(f[1])
                involved |= f[0]
            else:
                kept.append(f)
        contracted = apply_edge_operator(gathered, *names, c)
        if contracted.is_zero():
            return QQi(0)
        kept.append((involved & ~em, contracted))
        factors = kept

    value = QQi(1)
    for _, p in factors:
        value = value * p.constant_term()
    value = div_exact(value, scale)
    if sum(coloring.values()) % 2:
        value = -value
    if crossing_sign(graph, coloring) < 0:
        value = -value
    return value


def theta_value(a: int, b: int, c: int) -> Fraction:
    """Closed factorial formula for the (positive) theta-graph norm."""
    if not admissible_triple(a, b, c):
        raise AdmissibilityError(f"triple ({a},{b},{c}) is not admissible")
    s = (a + b + c) // 2
    num = (
        factorial(s + 1)
        * factorial((a + b - c) // 2)
        * factorial((a - b + c) // 2)
        * factorial((-a + b + c) // 2)
    )
    return Fraction(num, factorial(a) * factorial(b) * factorial(c))


def renormalize(graph: Graph, coloring: dict, value: QQi, internal: dict | None = None) -> QQi:
    """Multiply by (prod_e c_e!) / (prod_angles c_angle!); `internal` is the
    coloring's angle coloring, when the caller has it already."""
    if internal is None:
        internal = internal_coloring(graph, coloring)
    num = 1
    for e in graph.edge_ids:
        num *= factorial(coloring[e])
    den = 1
    for ca in internal.values():
        den *= factorial(ca)
    return value * Fraction(num, den)


def bracket_square(graph: Graph, coloring: dict, holonomy: Holonomy | None = None) -> Fraction:
    """|value|^2 divided by the product of per-vertex theta norms, value the
    network's evaluation under `holonomy`."""
    check_coloring(coloring, graph, "coloring")
    if not is_admissible(graph, coloring):
        return Fraction(0)
    return _bracket_square(graph, coloring, eval_spin_network(graph, coloring, holonomy))


def _bracket_square(graph: Graph, coloring: dict, value: QQi) -> Fraction:
    """bracket_square for a checked, admissible coloring and its value."""
    # prod over vertices of theta_value(a, b, c), as one fraction num / den
    num = den = 1
    for a, b, c in vertex_colors(graph, coloring):
        s = (a + b + c) // 2
        num *= factorial(s + 1) * factorial(s - c) * factorial(s - b) * factorial(s - a)
        den *= factorial(a) * factorial(b) * factorial(c)
    n2 = Fraction(value.norm2())
    return Fraction(n2.numerator * den, n2.denominator * num)
