"""Exact spin-network evaluation with holonomy.

The value is a full contraction: a product over vertices of three bracket
factors (variables pre-composed with the inverse holonomy of each half-edge),
hit by one antisymmetrized derivative operator per edge, times the crossing
sign.  The i-normalized vertex/edge factors contribute a global scalar
i^(2*sum c_e) = (-1)^(sum c_e), which is tracked outside the polynomial
arithmetic.

Holonomy entries that are real integers enter as int coefficients, so the
trivial-holonomy contraction runs on integers alone: one vertex factor
touching each edge e is scaled by c_e!, which keeps every division by c_e!
in the edge operator exact, and the final constant is divided once by
prod_e c_e!.  Genuinely Gaussian-rational entries run the same code on QQi.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import AdmissibilityError, InputError, RegimeError
from .graphs import Graph, Holonomy, crossing_sign, internal_coloring, is_admissible
from .polyring import MPoly, Namespace, apply_edge_operator
from .rational import QQi

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


def _narrow(x):
    """x as an int when it is a real integer, else as a QQi."""
    x = x if isinstance(x, QQi) else QQi(x)
    if not x.im and x.re.denominator == 1:
        return x.re.numerator
    return x


def _halfedge_forms(ns, holonomy, h):
    """Linear forms (Z_h, W_h) = psi_h^{-1} (z_h, w_h); holonomy None is the
    trivial one."""
    kz = 1 << ns.shift(_zvar(h))
    kw = 1 << ns.shift(_wvar(h))
    if holonomy is None:
        return MPoly(ns, {kz: 1}), MPoly(ns, {kw: 1})
    (a, b), (c, d) = ((_narrow(x) for x in row) for row in holonomy.inverse_matrix(h))
    return (MPoly(ns, {k: x for k, x in ((kz, a), (kw, b)) if x}),
            MPoly(ns, {k: x for k, x in ((kz, c), (kw, d)) if x}))


def _vertex_factors(graph, coloring, holonomy, ns, v, hs):
    a, b, c = (coloring[graph.edge_of[h][0]] for h in hs)
    exps = ((a + b - c) // 2, (b + c - a) // 2, (a + c - b) // 2)
    pairs = ((0, 1), (1, 2), (0, 2))
    forms = [_halfedge_forms(ns, holonomy, h) for h in hs]
    out = []
    for (i, j), n in zip(pairs, exps):
        if n == 0:
            continue
        zi, wi = forms[i]
        zj, wj = forms[j]
        out.append(((hs[i], hs[j]), (zi * wj - zj * wi).pow(n)))
    return out


def eval_spin_network(graph: Graph, coloring: dict, holonomy: Holonomy | None = None) -> QQi:
    """Exact value of the spin network (0 for non-admissible colorings)."""
    for e in graph.edge_ids:
        if e not in coloring:
            raise InputError(f"coloring misses edge {e!r}")
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

    # factors tagged with the half-edges they touch
    factors = []
    for v, hs in graph.vertices:
        factors.extend(_vertex_factors(graph, coloring, holonomy, ns, v, hs))

    # scale one factor touching each edge by c_e!, so that the edge operator's
    # division by c_e! is exact on integer coefficients
    scale = 1
    for e, l, r in graph.edges:
        ce = factorial(coloring[e])
        if ce > 1:
            scale *= ce
            i = next(i for i, (hh, _) in enumerate(factors) if l in hh or r in hh)
            factors[i] = (factors[i][0], factors[i][1].scalar_mul(ce))

    remaining = list(graph.edges)

    def cost(edge):
        _, l, r = edge
        return sum(len(p.terms) for hh, p in factors if l in hh or r in hh)

    while remaining:
        best = min(range(len(remaining)), key=lambda i: (cost(remaining[i]), i))
        e, l, r = remaining.pop(best)
        touch = {l, r}
        gathered = [f for f in factors if l in f[0] or r in f[0]]
        factors = [f for f in factors if not (l in f[0] or r in f[0])]
        prod = None
        involved = set(touch)
        for hh, p in sorted(gathered, key=lambda f: len(f[1].terms)):
            involved.update(hh)
            prod = p if prod is None else prod * p
        c = coloring[e]
        if prod is None:
            # no factor touches this edge; operator acts on the constant 1
            if c != 0:
                return QQi(0)
            continue
        contracted = apply_edge_operator(prod, _zvar(l), _wvar(l), _zvar(r), _wvar(r), c)
        if contracted.is_zero():
            return QQi(0)
        factors.append((tuple(involved - touch), contracted))

    value = QQi(Fraction(1, scale))
    for hh, p in factors:
        value = value * p.constant_term()
    total = sum(coloring[e] for e in graph.edge_ids)
    if total % 2:
        value = -value
    if crossing_sign(graph, coloring) < 0:
        value = -value
    return value


def theta_value(a: int, b: int, c: int) -> Fraction:
    """Closed factorial formula for the (positive) theta-graph norm."""
    s2 = a + b + c
    if s2 % 2 or a > b + c or b > a + c or c > a + b or min(a, b, c) < 0:
        raise AdmissibilityError(f"triple ({a},{b},{c}) is not admissible")
    s = s2 // 2
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
    if not is_admissible(graph, coloring):
        return Fraction(0)
    v = eval_spin_network(graph, coloring, holonomy) if value is None else value
    den = Fraction(1)
    for vid, hs in graph.vertices:
        a, b, c = (coloring[graph.edge_of[h][0]] for h in hs)
        den *= theta_value(a, b, c)
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
