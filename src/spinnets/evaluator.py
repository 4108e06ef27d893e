"""Exact spin-network evaluation with holonomy.

The value is a full contraction: a product over vertices of three bracket
factors (variables pre-composed with the inverse holonomy of each half-edge),
hit by one antisymmetrized derivative operator (1/c!^2)(d_z1 d_w2 - d_z2 d_w1)^c
per edge of color c, times the crossing sign.  The i-normalized vertex/edge
factors contribute a global scalar i^(2*sum c_e) = (-1)^(sum c_e), which is
tracked outside the polynomial arithmetic.

The contraction runs on Gaussian integers for every exact holonomy, and the
value is divided once.  Each half-edge form is scaled by the common
denominator d_h of the entries of psi_h^{-1}, so its coefficients are ints
(real integer entries, as for the trivial holonomy) or QQi with int parts,
and `apply_edge_operator` contracts each edge e with c_e! times its
operator, on integer weights and without dividing.  The value is
homogeneous of degree c_e(h) in the forms of each half-edge h, so the final
constant is divided once by prod_e c_e! * prod_h d_h^{c_e(h)}.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .errors import AdmissibilityError, InputError, RegimeError
from .graphs import (Graph, Holonomy, admissible_triple, check_coloring, crossing_sign,
                     internal_coloring, is_admissible, vertex_colors)
from .polyring import MPoly, Namespace, apply_edge_operator
from .rational import QQi, denominator, div_exact, narrow

__all__ = [
    "eval_spin_network",
    "theta_value",
    "renormalize",
    "bracket_square",
    "gauge_transform",
]

_MAX_COLOR = 60  # monomial packing allows per-variable exponents < 64


def _zvar(h):
    return "z@" + h


def _wvar(h):
    return "w@" + h


def _halfedge_forms(ns, holonomy, h):
    """Linear forms (Z_h, W_h) = d_h psi_h^{-1} (z_h, w_h) on Gaussian
    integers, and d_h, the common denominator of psi_h^{-1}'s entries;
    holonomy None is the trivial one."""
    kz = 1 << ns.shift(_zvar(h))
    kw = 1 << ns.shift(_wvar(h))
    if holonomy is None:
        return MPoly(ns, {kz: 1}), MPoly(ns, {kw: 1}), 1
    inv = holonomy.inverse_matrix(h)
    den = lcm(*(denominator(x) for row in inv for x in row))
    (a, b), (c, d) = ((narrow(x * den) for x in row) for row in inv)
    return (MPoly(ns, {k: x for k, x in ((kz, a), (kw, b)) if x}),
            MPoly(ns, {k: x for k, x in ((kz, c), (kw, d)) if x}), den)


def eval_spin_network(graph: Graph, coloring: dict, holonomy: Holonomy | None = None) -> QQi:
    """Exact value of the spin network (0 for non-admissible colorings)."""
    check_coloring(coloring, graph, "coloring")
    for e in graph.edge_ids:
        if coloring[e] > _MAX_COLOR:
            raise InputError(f"color {coloring[e]} exceeds supported bound {_MAX_COLOR}")
    if holonomy is not None and not holonomy.exact:
        raise RegimeError("exact evaluation needs an exact-regime holonomy")
    if not is_admissible(graph, coloring):
        return QQi(0)

    names = []
    for h in graph.halfedges:
        names.append(_zvar(h))
        names.append(_wvar(h))
    ns = Namespace(names)

    # one bracket factor (Z_g W_h - Z_h W_g)^n per angle (g, h) of color n,
    # tagged with the half-edges it touches; the value is divided once by
    # scale: prod_e c_e!, as each edge contraction is c_e! times the edge's
    # operator, and prod_h d_h^{c_e(h)} for the scaled half-edge forms
    forms = {h: _halfedge_forms(ns, holonomy, h) for h in graph.halfedges}
    scale = prod(factorial(coloring[e]) for e in graph.edge_ids)
    for h, (_, _, den) in forms.items():
        scale *= den ** coloring[graph.edge_of[h][0]]
    internal = internal_coloring(graph, coloring)
    factors = []
    for aid, _, _, (g, h) in graph.angles:
        if internal[aid]:
            zg, wg, _ = forms[g]
            zh, wh, _ = forms[h]
            factors.append(((g, h), (zg * wh - zh * wg).pow(internal[aid])))

    # a color-0 edge touches no factor; an edge of color c_e > 0 touches a
    # factor at each half-edge, whose two angles' colors sum to c_e
    remaining = [edge for edge in graph.edges if coloring[edge[0]]]

    def cost(edge):
        _, l, r = edge
        return sum(len(p.terms) for hh, p in factors if l in hh or r in hh)

    while remaining:
        best = min(range(len(remaining)), key=lambda i: (cost(remaining[i]), i))
        e, l, r = remaining.pop(best)
        touch = {l, r}
        gathered = [f for f in factors if l in f[0] or r in f[0]]
        factors = [f for f in factors if not (l in f[0] or r in f[0])]
        involved = touch.union(*(hh for hh, _ in gathered))
        contracted = apply_edge_operator([p for _, p in gathered], _zvar(l), _wvar(l),
                                         _zvar(r), _wvar(r), coloring[e])
        if contracted.is_zero():
            return QQi(0)
        factors.append((tuple(involved - touch), contracted))

    value = QQi(1)
    for hh, p in factors:
        value = value * p.constant_term()
    value = div_exact(value, scale)
    total = sum(coloring[e] for e in graph.edge_ids)
    if total % 2:
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


def renormalize(graph: Graph, coloring: dict, value: QQi) -> QQi:
    """Multiply by (prod_e c_e!) / (prod_angles c_angle!)."""
    internal = internal_coloring(graph, coloring)
    num = 1
    for e in graph.edge_ids:
        num *= factorial(coloring[e])
    den = 1
    for ca in internal.values():
        den *= factorial(ca)
    return value * Fraction(num, den)


def bracket_square(graph: Graph, coloring: dict, holonomy: Holonomy | None = None,
                   value: QQi | None = None) -> Fraction:
    """|value|^2 divided by the product of per-vertex theta norms.

    `value` is the network's evaluation under `holonomy` when the caller
    already has it; otherwise the network is evaluated here.
    """
    check_coloring(coloring, graph, "coloring")
    if not is_admissible(graph, coloring):
        return Fraction(0)
    v = eval_spin_network(graph, coloring, holonomy) if value is None else value
    den = Fraction(1)
    for cols in vertex_colors(graph, coloring):
        den *= theta_value(*cols)
    return v.norm2() / den


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def _mat2_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat2_inv_det1(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def gauge_transform(graph: Graph, holonomy: Holonomy, g: dict) -> Holonomy:
    """Transformed connection: half-edge (e, v) maps to g_e psi_h g_v^{-1}."""
    if not holonomy.exact:
        raise RegimeError("gauge_transform needs an exact-regime holonomy")
    mats = {}
    for key, m in g.items():
        rows = tuple(tuple(x if isinstance(x, QQi) else QQi(x) for x in row) for row in m)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det != QQi(1):
            raise InputError(f"gauge element at {key!r} has determinant {det!r}, not 1")
        mats[key] = rows
    entries = {}
    for h in graph.halfedges:
        e = graph.edge_of[h][0]
        v = graph.vertex_of[h]
        ge = mats.get(e)
        gv = mats.get(v)
        if ge is None or gv is None:
            raise InputError(f"gauge map misses {'edge ' + repr(e) if ge is None else 'vertex ' + repr(v)}")
        entries[h] = _mat2_mul(_mat2_mul(ge, holonomy.matrix(h)), _mat2_inv_det1(gv))
    return Holonomy(graph, entries, True)
