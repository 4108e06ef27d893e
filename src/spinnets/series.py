"""Generating series of renormalized spin-network evaluations.

Four routes to the same series and its determinant identities:
  * quadratic-form determinant (build_pq + series_Z),
  * cycle-subgraph polynomial (westbury_polynomial),
  * curve/dimer expansion of the half-edge matrix for diagonal holonomies
    (abelian_curve_sum),
  * dimer/Pfaffian expansion (pfaffian_dimer_sum),
plus the sign-fix operators that upgrade the determinant series to the true
generating series on presentations with crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm

from .errors import RegimeError
from .evaluator import _wvar, _zvar, eval_spin_network, renormalize
from .graphs import Graph, Holonomy, admissible_colorings, check_diagonal_t, internal_coloring
from .polyring import (MPoly, Namespace, _check_exponents, _mul_acc, _nonzero,
                       _series_recurrence, inv_sqrt_series)
from .polyring import det_poly  # noqa: F401  perfbench/tracer.py patches it here by name
from .rational import QQi, denominator, div_exact, narrow

__all__ = [
    "PQMatrices",
    "build_pq",
    "series_Z",
    "westbury_polynomial",
    "abelian_curve_sum",
    "pfaffian_dimer_sum",
    "nonplanar_fix",
    "compare_with_evaluations",
]

_I = QQi(0, 1)


@dataclass(frozen=True)
class PQMatrices:
    """Canonical-basis matrix of the quadratic form, split into the constant
    part P (edge pairings) and the X-linear part Q (holonomy-twisted angle
    pairings).  Basis: (z_h, w_h) per half-edge, in presentation order."""

    ns: Namespace            # angle-variable namespace
    basis: tuple             # variable label per row/column
    p: dict                  # {row: {col: QQi}}
    q: dict                  # {row: {col: MPoly}}

    def full(self):
        """Dense list-of-lists P + Q over MPoly (det_poly input)."""
        n = len(self.basis)
        idx = {b: i for i, b in enumerate(self.basis)}
        rows = [[MPoly.zero(self.ns) for _ in range(n)] for _ in range(n)]
        for r, cols in self.p.items():
            for c, v in cols.items():
                rows[idx[r]][idx[c]] = rows[idx[r]][idx[c]] + MPoly.const(self.ns, v)
        for r, cols in self.q.items():
            for c, v in cols.items():
                rows[idx[r]][idx[c]] = rows[idx[r]][idx[c]] + v
        return rows


def build_pq(graph: Graph, holonomy: Holonomy | None = None) -> PQMatrices:
    if holonomy is None:
        holonomy = Holonomy.trivial(graph)
    if not holonomy.exact:
        raise RegimeError("build_pq needs an exact-regime holonomy")
    ns = Namespace(graph.angle_ids)
    basis = [x for h in graph.halfedges for x in (_zvar(h), _wvar(h))]

    # every entry comes from exactly one edge or one angle: a half-edge lies
    # on one edge, and an angle's pairs (g, h) and (h, g) are its own
    p: dict = {b: {} for b in basis}
    for e, l, r in graph.edges:
        p[_zvar(l)][_wvar(r)] = p[_wvar(r)][_zvar(l)] = _I
        p[_zvar(r)][_wvar(l)] = p[_wvar(l)][_zvar(r)] = -_I

    q: dict = {b: {} for b in basis}
    for aid, v, (i, j), (g, h) in graph.angles:
        (a, b), (c, d) = holonomy.inverse_matrix(g)
        (a2, b2), (c2, d2) = holonomy.inverse_matrix(h)
        coeffs = {
            (_zvar(g), _zvar(h)): _I * (a * c2 - a2 * c),
            (_zvar(g), _wvar(h)): _I * (a * d2 - b2 * c),
            (_wvar(g), _zvar(h)): _I * (b * c2 - a2 * d),
            (_wvar(g), _wvar(h)): _I * (b * d2 - b2 * d),
        }
        for (rr, cc), val in coeffs.items():
            if val:
                q[rr][cc] = q[cc][rr] = MPoly.var(ns, aid, val)
    return PQMatrices(ns, tuple(basis), p, q)


# ---------------------------------------------------------------------------
# determinant of P + Q, truncated: det(P+Q) = det(I - B) with B = P·Q, since
# P^{-1} = -P and det(P) = 1.  B's entries are X-linear, so the power sum
# p_m = tr(B^m) is homogeneous of degree m, and the series recurrence of
# polyring, run with g_m = p_m and weight -1 (Newton's identities), gives the
# degree-k part of the determinant.  B and its powers are dict-of-dicts of
# term dicts; each entry of a power and each trace is accumulated in one
# dict by polyring's multiply-accumulate kernel, and as every product is
# homogeneous of degree m <= max_degree, none needs truncating.  Each
# coefficient of B is narrowed: to int when it is a real integer (every one
# is for a real holonomy with integer entries, as i·i = -1), to a QQi with
# int parts when it is a Gaussian integer.  series_Z scales Q by the common
# denominator D of its coefficients first, which substitutes X -> D·X, so
# for every exact holonomy B's powers, the traces and the determinant's
# parts stay on Gaussian integers, each division by k being exact because
# det(I - B) then has Gaussian-integer coefficients; series_Z divides the
# degree-k part of the inverse square root by D^k once at the end.
# truncated_det caps max_degree at 4V: a vertex's angles occur only in Q's block
# i·Dᵀ(S ⊗ ε)D on its half-edges (D = diag(psi_h^-1), ε and S the 2x2 and 3x3 antisymmetric
# forms), of rank <= 4, and det(M + tN) has degree <= rank N in t (Horn & Johnson).
# ---------------------------------------------------------------------------

def _sparse_matmul(a, b, ns):
    out: dict = {}
    for i, row in a.items():
        acc: dict = {}
        for k, aik in row.items():
            for j, bkj in b.get(k, {}).items():
                _check_exponents(ns, aik, bkj)
                _mul_acc(acc.setdefault(j, {}), aik, bkj)
        acc = {j: t for j, t in acc.items() if _nonzero(t)}
        if acc:
            out[i] = acc
    return out


def _pair_trace(a, b, ns) -> MPoly:
    acc: dict = {}
    for i, row in a.items():
        for j, aij in row.items():
            bji = b.get(j, {}).get(i)
            if bji is not None:
                _check_exponents(ns, aij, bji)
                _mul_acc(acc, aij, bji)
    return MPoly(ns, _nonzero(acc))


def truncated_det(pq: PQMatrices, max_degree: int) -> MPoly:
    """det(P + Q) with monomials of degree > max_degree dropped; any
    max_degree >= 4V (V vertices) gives the exact determinant.

    Q's coefficients are used as given, so a Gaussian-rational Q runs on
    Fraction parts: about 7 times slower than on Gaussian integers for theta
    with a complex SL(2) holonomy at degree 16.  series_Z scales Q to
    Gaussian integers first."""
    ns = pq.ns
    max_degree = min(max_degree, 4 * len(ns) // 3)  # three angles per vertex
    # B = P·Q as sparse dict-of-dicts of term dicts, on the narrowest ring:
    # row r of P holds one entry s, at column k, so row r of B is s·(row k of Q)
    b: dict = {}
    for r, cols in pq.p.items():
        (k, s), = cols.items()
        if pq.q.get(k):
            b[r] = {j: {key: narrow(s * c) for key, c in poly.terms.items()}
                    for j, poly in pq.q[k].items()}
    # tr(B^m) pairs B^p with B^(m-p) (B^0 being the identity on B's rows),
    # and both exponents stay <= top because m - top <= max_degree - top <= top
    powers = {0: {i: {i: {0: 1}} for i in b}, 1: b}
    top = max(1, (max_degree + 1) // 2)
    for m in range(2, top + 1):
        powers[m] = _sparse_matmul(powers[m - 1], b, ns)
    traces = [MPoly(ns, {0: 1})]
    for m in range(1, max_degree + 1):
        p = min(top, m - 1)
        traces.append(_pair_trace(powers[p], powers[m - p], ns))
    # Newton's identities: k·F_k = -sum_m tr(B^m)·F_{k-m}
    return _series_recurrence(traces, max_degree, lambda m, k: -1)


def series_Z(graph: Graph, holonomy: Holonomy | None = None, degree: int = 8) -> MPoly:
    """Inverse square root of det(P + Q) up to total degree `degree`.

    For crossing-free presentations the coefficient of X^c is the
    renormalized evaluation; with crossings, apply nonplanar_fix to the
    result to obtain the true generating series.

    Q is scaled by the common denominator D of its coefficients, so that
    det(P + D·Q) = det(P + Q)(D·X) and its inverse square root run on
    Gaussian integers; the degree-k part is then divided by D^k once.
    """
    pq = build_pq(graph, holonomy)
    den = lcm(*(denominator(c) for cols in pq.q.values()
                for poly in cols.values() for c in poly.terms.values()))
    if den > 1:
        pq = replace(pq, q={r: {c: poly.scalar_mul(den) for c, poly in cols.items()}
                            for r, cols in pq.q.items()})
    s = inv_sqrt_series(truncated_det(pq, degree), degree)
    if den == 1:
        return s
    deg = pq.ns.degree
    return MPoly(pq.ns, {k: div_exact(c, den ** deg(k)) for k, c in s.terms.items()})


# ---------------------------------------------------------------------------
# cycle polynomial
# ---------------------------------------------------------------------------

def westbury_polynomial(graph: Graph) -> MPoly:
    """Sum over subgraphs that are disjoint unions of cycles of the product
    of the angle variables covered twice (the empty subgraph contributes 1)."""
    ns = Namespace(graph.angle_ids)
    angle_at = {(v, ij): aid for aid, v, ij, _ in graph.angles}
    # per vertex: (vertex id, [edge index per slot])
    vslots = [(v, [graph.edge_index[e] for e in es])
              for (v, _), es in zip(graph.vertices, graph.vertex_edges)]
    terms = {}
    for mask in range(1 << len(graph.edge_ids)):
        exps = {}
        ok = True
        for v, slots in vslots:
            inside = [p for p, ei in enumerate(slots) if mask >> ei & 1]
            if not inside:
                continue
            if len(inside) != 2:
                ok = False
                break
            exps[angle_at[v, tuple(inside)]] = 1
        if ok:
            terms[ns.encode(exps)] = 1
    return MPoly(ns, terms)


# ---------------------------------------------------------------------------
# blown-up graph: nodes are half-edges; an external link per edge, an
# internal link per angle.  Link weights follow the half-edge matrix of the
# diagonal-holonomy quadratic form divided by i.  A loop edge and the angle
# between its two half-edges link the same pair of nodes, so each ordered
# pair holds a list of links, and the enumerations take one link per step.
# ---------------------------------------------------------------------------

def _blown_up(graph: Graph, t: dict | None = None):
    """(namespace, links) where links[g][h] lists the (monomial key, weight)
    links from node g to node h, nodes numbered in half-edge order: weight 1
    from left to right and -1 back per edge, (t_g^{-1} t_h) X_a from g to h
    and -(t_g t_h^{-1}) X_a back per angle a = (g, h); t defaults to 1."""
    ns = Namespace(graph.angle_ids)
    t = dict.fromkeys(graph.halfedges, 1) if t is None else check_diagonal_t(graph, t)
    idx = {h: i for i, h in enumerate(graph.halfedges)}
    links = [{} for _ in idx]

    def link(g, h, key, weight):
        links[idx[g]].setdefault(idx[h], []).append((key, weight))

    for e, l, r in graph.edges:
        link(l, r, 0, 1)
        link(r, l, 0, -1)
    for aid, v, (i, j), (g, h) in graph.angles:
        key = ns.encode({aid: 1})
        link(g, h, key, div_exact(t[h], t[g]))
        link(h, g, key, -div_exact(t[g], t[h]))
    return ns, links


def w1_matrix(graph: Graph, t: dict):
    """Dense half-edge matrix (list of lists of MPoly) for det_poly checks."""
    ns, links = _blown_up(graph, t)
    n = len(links)
    rows = [[MPoly.zero(ns) for _ in range(n)] for _ in range(n)]
    for g, row in enumerate(links):
        for h, ls in row.items():
            # one edge link (key 0) and one angle link at most: keys differ
            rows[g][h] = MPoly(ns, dict(ls))
    return ns, rows


def abelian_curve_sum(graph: Graph, t: dict | None = None) -> MPoly:
    """Signed sum over configurations of oriented curves and dimers covering
    the blown-up graph; equals det(W1) and, inverted, the generating series
    for the diagonal holonomy diag(t_h, t_h^{-1})."""
    ns, links = _blown_up(graph, t)
    n = len(links)
    adj = [sorted(row.items()) for row in links]
    # per node v, the dimers {v, u} with u > v: every product of a link from
    # v to u with a link back
    dimers = [[(u, [(k1 + k2, c1 * c2) for k1, c1 in ls for k2, c2 in links[u][v]])
               for u, ls in row if u > v] for v, row in enumerate(adj)]
    acc: dict = {}

    def cover(mask, key, coeff, parity):
        if not mask:
            acc[key] = acc.get(key, 0) + (-coeff if parity & 1 else coeff)
            return
        v = (mask & -mask).bit_length() - 1
        mask_v = mask & ~(1 << v)
        for u, products in dimers[v]:
            if (mask_v >> u) & 1:
                for kd, cd in products:
                    cover(mask_v & ~(1 << u), key + kd, coeff * cd, parity + 1)

        # oriented cycles of length >= 3 through v (v is the minimum node)
        def walk(cur, mask2, key2, coeff2, length):
            for u, ls in adj[cur]:
                if u == v:
                    if length >= 3:
                        for ke, ce in ls:
                            cover(mask2, key2 + ke, coeff2 * ce, parity + 1)
                    continue
                if not (mask2 >> u) & 1:
                    continue
                for ke, ce in ls:
                    walk(u, mask2 & ~(1 << u), key2 + ke, coeff2 * ce, length + 1)

        walk(v, mask_v, key, coeff, 1)

    cover((1 << n) - 1, 0, 1, n)  # global factor (-1)^n via start parity
    return MPoly(ns, _nonzero(acc))


def pfaffian_dimer_sum(graph: Graph) -> MPoly:
    """Sum over dimer configurations of the blown-up graph of the product of
    covered angle variables, all signs +1; equals westbury_polynomial."""
    ns, links = _blown_up(graph)
    adj = [[(u, [k for k, _ in ls]) for u, ls in sorted(row.items())] for row in links]
    acc: dict = {}

    def match(mask, key):
        if not mask:
            acc[key] = acc.get(key, 0) + 1
            return
        v = (mask & -mask).bit_length() - 1
        mask_v = mask & ~(1 << v)
        for u, keys in adj[v]:
            if (mask_v >> u) & 1:
                for k in keys:
                    match(mask_v & ~(1 << u), key + k)

    match((1 << len(links)) - 1, 0)
    return MPoly(ns, acc)


# ---------------------------------------------------------------------------
# sign fix for presentations with crossings
# ---------------------------------------------------------------------------

def nonplanar_fix(poly: MPoly, graph: Graph) -> MPoly:
    """Apply S_x = (id + Op_e1 + Op_e2 - Op_e1 Op_e2)/2 for every crossing,
    where Op_e negates the two angle variables at the left endpoint of e.

    Op_e multiplies a monomial by -1 when its degree in those two angles is
    odd, so S_x negates exactly the monomials odd in the angles of both
    edges and keeps every other one: the fix is a sign per monomial.
    """
    ns = poly.ns
    # per crossing edge, the low bit of its two angles' exponent fields: a key
    # has an odd number of bits under it exactly when its degree in them is odd
    lows = [[sum(1 << ns.shift(a) for a in graph.angles_at_halfedge(graph.edge_by_id[e][0]))
             for e in pair] for pair in graph.crossings]
    out = {}
    for k, c in poly.terms.items():
        odd = sum((k & m1).bit_count() & (k & m2).bit_count() & 1 for m1, m2 in lows)
        out[k] = -c if odd & 1 else c
    return MPoly(ns, out)


# ---------------------------------------------------------------------------
# coefficient-by-coefficient comparison against the exact evaluator
# ---------------------------------------------------------------------------

def compare_with_evaluations(graph: Graph, holonomy: Holonomy | None,
                             series: MPoly, degree: int):
    """One row per admissible coloring of total degree <= degree:
    (coloring, series coefficient, renormalized evaluation, equal?)."""
    rows = []
    for col in admissible_colorings(graph, max_total=degree):
        exps = {a: c for a, c in internal_coloring(graph, col).items() if c}
        coeff = series.coefficient(exps)
        expect = renormalize(graph, col, eval_spin_network(graph, col, holonomy))
        rows.append((col, coeff, expect, coeff == expect))
    return rows
