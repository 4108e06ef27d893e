"""Generating series of renormalized spin-network evaluations.

Four routes to the same series and its determinant identities:
  * quadratic-form determinant (build_pq + series_Z),
  * cycle-subgraph polynomial (westbury_polynomial),
  * curve/dimer expansion of the half-edge matrix, for holonomies whose
    angle forms pair each z with a w only (abelian_curve_sum),
  * dimer/Pfaffian expansion (pfaffian_dimer_sum),
plus the sign-fix operators that upgrade the determinant series to the true
generating series on presentations with crossings.  The two planar routes
enumerate the cycle space spanned by `Graph.cycles`, which the graph keeps
from the search that checked its connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm

from . import polyring  # TERM_BUDGET read at call time, as polyring reads it
from .errors import InputError, RegimeError, ResourceError
from .evaluator import _MAX_COLOR, _wvar, _zvar, eval_spin_network, renormalize
from .graphs import Graph, Holonomy, admissible_colorings, internal_coloring
from .polyring import (_BITS, MAX_EXPONENT, MPoly, Namespace, _check_exponents, _mul_acc,
                       _nonzero, _norm1, _over_budget, _on_gaussian_integers, _Residues,
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


def build_pq(graph: Graph, holonomy: Holonomy | None = None) -> PQMatrices:
    if holonomy is None:
        holonomy = Holonomy.trivial(graph)
    elif not holonomy.exact:
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
        coeffs, den = holonomy.angle_form(g, h)
        pairs = ((_zvar(g), _zvar(h)), (_zvar(g), _wvar(h)),
                 (_wvar(g), _zvar(h)), (_wvar(g), _wvar(h)))
        for (rr, cc), c in zip(pairs, coeffs):
            if c:
                q[rr][cc] = q[cc][rr] = MPoly.var(ns, aid, _I * c / den)
    return PQMatrices(ns, tuple(basis), p, q)


# ---------------------------------------------------------------------------
# determinant of P + Q, truncated: det(P+Q) = det(I - B) with B = P·Q, since
# P^{-1} = -P and det(P) = 1.  B's entries are X-linear, so the power sum
# p_m = tr(B^m) is homogeneous of degree m, and the series recurrence of
# polyring, run with g_m = p_m and weight -1 (Newton's identities), gives the
# degree-k part of the determinant.  Q is first scaled by the common
# denominator D of its coefficients, which substitutes X -> D·X, so B holds
# Gaussian integers, each narrowed to an int when it is real (every one is
# for a real holonomy with integer entries, as i·i = -1), and det(I - B) has
# Gaussian-integer coefficients: each division by k in the recurrence is
# exact, and the degree-k part is divided by D^k once at the end.
#
# A power B^p is one term dict per row, its key the column shifted above the
# monomial's fields plus the monomial: (col << 6·|ns|) + key.  Row i of
# B^(p+1) is one pass over row i of B^p: a term of column j meets each
# (delta, c) of B's list for row j, delta being the column change shifted
# up plus B's monomial, so the product's key is one addition.  A trace
# tr(B^p·B^q) runs the same kernel with row i of B^p against B^q's terms of
# column i only, grouped once per q, their deltas dropping the column.
# Every product is homogeneous of degree m <= max_degree, so none needs
# truncating, and with max_degree <= MAX_EXPONENT no exponent can carry into
# the next field; past it each product's operands are checked first, as
# mul_trunc checks them.  When B holds a QQi the coefficients run as
# residues (polyring._Residues), one modulo per term of a power and each
# trace decoded once.  The width comes from B alone: with rho the largest
# row sum of |re| + |im| over B's terms, every row sum of B^m is at most
# rho^m, so every part of a coefficient of tr(B^m) is at most n·rho^m, n
# being B's rows.
# truncated_det caps max_degree at 4V: a vertex's angles occur only in Q's block
# i·Dᵀ(S ⊗ ε)D on its half-edges (D = diag(psi_h^-1), ε and S the 2x2 and 3x3 antisymmetric
# forms), of rank <= 4, and det(M + tN) has degree <= rank N in t (Horn & Johnson).
# ---------------------------------------------------------------------------

def _row_product(acc: dict, row: dict, lists, shift: int) -> dict:
    """acc[k + delta] += c·d for every term k: c of row and (delta, d) in
    lists[k >> shift]; returns acc."""
    get = acc.get
    for ka, ca in row.items():
        for delta, cb in lists[ka >> shift]:
            k = ka + delta
            s = get(k)
            acc[k] = ca * cb if s is None else s + ca * cb
    return acc


def truncated_det(pq: PQMatrices, max_degree: int) -> MPoly:
    """det(P + Q) with monomials of degree > max_degree dropped; any
    max_degree >= 4V (V vertices) gives the exact determinant."""
    if max_degree < 0:
        raise InputError(f"truncated_det needs a degree >= 0, got {max_degree}")
    ns = pq.ns
    max_degree = min(max_degree, 4 * len(ns) // 3)  # three angles per vertex
    den = lcm(*(denominator(c) for cols in pq.q.values()
                for poly in cols.values() for c in poly.terms.values()))
    n, shift = len(pq.basis), _BITS * len(ns)
    index = {x: i for i, x in enumerate(pq.basis)}
    # B = P·D·Q by rows: row r of P holds one entry s, at column k, so row r
    # of B is s·D·(row k of Q)
    b: dict = {}
    for r, cols in pq.p.items():
        (k, s), = cols.items()
        if pq.q.get(k):
            b[index[r]] = {(index[j] << shift) + key: narrow(s * narrow(den * c))
                           for j, poly in pq.q[k].items() for key, c in poly.terms.items()}
    res = None
    if _on_gaussian_integers(b.values()):
        res = _Residues(len(b) * max(map(_norm1, b.values())) ** max_degree)
        b = {i: res.encode(row) for i, row in b.items()}
    reduce_ = _nonzero if res is None else res.reduce

    def check(left, right):
        """Past MAX_EXPONENT, the exponents of left·right, as mul_trunc
        checks a product's."""
        if max_degree > MAX_EXPONENT:
            _check_exponents(ns, *[{k & (1 << shift) - 1 for row in rows.values() for k in row}
                                   for rows in (left, right)])

    # per row j of B, (column change shifted up + monomial, coeff)
    b_lists = [[(key - (j << shift), c) for key, c in b.get(j, {}).items()] for j in range(n)]
    # tr(B^m) pairs B^p with B^(m-p) (B^0 being the identity on B's rows),
    # and both exponents stay <= top because m - top <= max_degree - top <= top
    top = max(1, (max_degree + 1) // 2)
    powers = [{i: {i << shift: 1} for i in b}, b]
    for m in range(2, top + 1):
        check(powers[m - 1], b)
        rows = ((i, reduce_(_row_product({}, row, b_lists, shift)))
                for i, row in powers[m - 1].items())
        powers.append({i: row for i, row in rows if row})
    columns: dict = {}  # q -> B^q's lists per column i and row j: (monomial - row, coeff)
    traces = [MPoly(ns, {0: 1})]
    for m in range(1, max_degree + 1):
        p = min(top, m - 1)
        check(powers[p], powers[m - p])
        by_column = columns.get(m - p)
        if by_column is None:
            by_column = columns[m - p] = [[[] for _ in range(n)] for _ in range(n)]
            for j, row in powers[m - p].items():
                for key, c in row.items():
                    i = key >> shift
                    by_column[i][j].append((key - (i + j << shift), c))
        acc: dict = {}
        for i, row in powers[p].items():
            _row_product(acc, row, by_column[i], shift)
        traces.append(MPoly(ns, _nonzero(acc) if res is None else res.decode(acc)))
    # Newton's identities: k·F_k = -sum_m tr(B^m)·F_{k-m}, for the determinant
    # at D·X, whose degree-k part the recurrence divides by D^k
    return _series_recurrence(traces, max_degree, lambda m, k: -1, den)


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

def _check_planar_route(graph: Graph, route: str):
    """Refuse a rotation system of genus > 0 (RegimeError), then a cycle
    space of 2^(E - V + 1) elements past TERM_BUDGET (ResourceError): the
    planar routes enumerate one term per element."""
    if graph.genus:
        raise RegimeError(f"{route} is a planar formula and needs a genus-0 rotation "
                          f"system; {graph.name!r} has genus {graph.genus}")
    if 1 << len(graph.cycles) > polyring.TERM_BUDGET:
        raise _over_budget(1 << len(graph.cycles), "the cycle polynomial")


def westbury_polynomial(graph: Graph) -> MPoly:
    """Sum over subgraphs that are disjoint unions of cycles of the product
    of the angle variables covered twice (the empty subgraph contributes 1).
    In a connected trivalent graph these subgraphs are the edge sets meeting
    every vertex in 0 or 2 half-edges, the cycle space: the XOR combinations
    of the graph's fundamental cycles, `Graph.cycles`, walked in Gray-code
    order.  It is the planar formula: _check_planar_route refuses a rotation
    system of genus > 0, and then 2^(E - V + 1) terms past TERM_BUDGET,
    first."""
    _check_planar_route(graph, "westbury_polynomial")
    ns = Namespace(graph.angle_ids)
    # per vertex: its edges' mask and {mask of two of its edges: their angle's key}
    tables = []
    for k, es in enumerate(graph.vertex_edges):
        bits = [1 << graph.edge_index[e] for e in es]
        table = {0: 0}
        for aid, _, (i, j), _ in graph.angles[3 * k:3 * k + 3]:
            table[bits[i] | bits[j]] = ns.encode({aid: 1})
        tables.append((bits[0] | bits[1] | bits[2], table))
    mask, terms = 0, {0: 1}
    for n in range(1, 1 << len(graph.cycles)):
        mask ^= graph.cycles[(n & -n).bit_length() - 1]
        terms[sum(table[mask & m] for m, table in tables)] = 1
    return MPoly(ns, terms)


# ---------------------------------------------------------------------------
# blown-up graph: nodes are half-edges; an external link per edge, an
# internal link per angle.  Link weights follow the half-edge matrix of the
# quadratic form divided by i.  A loop edge and the angle between its two
# half-edges link the same pair of nodes, so each ordered pair holds a list
# of links, and the enumerations take one link per step.
# ---------------------------------------------------------------------------

def _blown_up(graph: Graph, holonomy: Holonomy | None = None):
    """(namespace, links) where links[g][h] lists the (monomial key, weight)
    links from node g to node h, nodes numbered in half-edge order: weight 1
    from left to right and -1 back per edge; per angle a = (g, h), X_a times
    the coefficient of z_g w_h in the holonomy's angle form, and back that of
    w_g z_h (t_h/t_g and -t_g/t_h for diag(t_h, 1/t_h)).  None is the trivial
    holonomy; a floating one (RegimeError) and a form with a z z or w w term
    (InputError) are refused."""
    if holonomy is None:
        holonomy = Holonomy.trivial(graph)
    elif not holonomy.exact:
        raise RegimeError("the curve sum needs an exact-regime holonomy")
    ns = Namespace(graph.angle_ids)
    idx = {h: i for i, h in enumerate(graph.halfedges)}
    links = [{} for _ in idx]

    def link(g, h, key, weight):
        links[idx[g]].setdefault(idx[h], []).append((key, weight))

    for e, l, r in graph.edges:
        link(l, r, 0, 1)
        link(r, l, 0, -1)
    for aid, v, (i, j), (g, h) in graph.angles:
        (zz, zw, wz, ww), d = holonomy.angle_form(g, h)
        if zz or ww:
            raise InputError(f"the curve sum needs angle forms that pair each z with a w; "
                             f"the form of angle {aid!r} has a z z or w w term")
        key = ns.encode({aid: 1})
        link(g, h, key, div_exact(zw, d))
        link(h, g, key, div_exact(wz, d))
    return ns, links


def abelian_curve_sum(graph: Graph, holonomy: Holonomy | None = None) -> MPoly:
    """Signed sum over configurations of oriented curves and dimers covering
    the blown-up graph; equals det(W1) and, inverted, the generating series
    for a holonomy whose angle forms pair each z with a w only, a diagonal or
    anti-diagonal one (_blown_up refuses others).  A dimer {v, u} is the
    2-cycle v -> u -> v, so one walk finds every piece.  The walk's steps
    count against TERM_BUDGET, and past it the sum is refused (ResourceError).

    The walk drops a branch as soon as a node can no longer be covered
    (forward checking: Haralick & Elliott, Artif. Intell. 14, 1980).  It
    stops stepping once v has no uncovered neighbour left, as the cycle
    could not close, and it does not step to u when that would leave a
    neighbour w of u with no uncovered neighbour while w is not adjacent to
    v: w could then lie neither on a cycle of the rest nor on this one.  A
    mask whose nodes fall in more than one component has the product of the
    components' covers, with no sign, as each cycle lies in one of them.
    The recursive closures are deleted after use: each refers to itself, and
    the cycle would leave the memo and the pieces to the cyclic collector."""
    ns, links = _blown_up(graph, holonomy)
    adj = [sorted(row.items()) for row in links]
    # every link has its reverse (l <-> r per edge, g <-> h per angle), so
    # nbr[g], the mask of the nodes g links to, is also that of its predecessors
    nbr = [sum(1 << u for u in row) for row in links]
    memo = {0: {0: 1}}
    budget, steps = polyring.TERM_BUDGET, 0

    def cover(mask) -> dict:
        """{key: coeff} summed over the covers of the nodes in mask, each
        dimer or cycle flipping the sign; the first piece covers the lowest
        node v, and the covers of what it leaves are looked up by mask."""
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        part, grow = 0, 1 << v  # v's component within mask
        while grow:
            part |= grow
            reach = 0
            while grow:
                low = grow & -grow
                reach |= nbr[low.bit_length() - 1]
                grow ^= low
            grow = reach & mask & ~part
        if part != mask:
            head = cover(part)
            memo[mask] = acc = _mul_acc({}, head, cover(mask & ~part)) if head else {}
            return acc
        near_v = nbr[v]
        first: dict = {}  # the first pieces, grouped by the nodes they leave uncovered

        # oriented cycles through v (v is the minimum node), a dimer being the
        # cycle of length 2: no node links to itself, so the walk closes only
        # after a step away from v
        def walk(cur, mask2, key2, coeff2):
            nonlocal steps
            steps += 1
            if steps > budget:
                raise ResourceError(f"the curve sum would walk more steps than the term "
                                    f"budget of {budget}")
            closable = near_v & mask2  # the nodes the cycle can still close from
            for u, ls in adj[cur]:
                if u == v:
                    piece = first.setdefault(mask2, {})
                    for ke, ce in ls:
                        piece[key2 + ke] = piece.get(key2 + ke, 0) + coeff2 * ce
                elif closable and (mask2 >> u) & 1:
                    mask3 = mask2 & ~(1 << u)
                    # a neighbour w of u left with no neighbour in mask3 could
                    # only be the next step, and then only if it closes to v
                    for w in links[u]:
                        if (mask3 >> w) & 1 and not nbr[w] & mask3 and not (near_v >> w) & 1:
                            break
                    else:
                        for ke, ce in ls:
                            walk(u, mask3, key2 + ke, coeff2 * ce)

        walk(v, mask & ~(1 << v), 0, 1)
        del walk
        # zeros are kept until the end, so each coefficient's ring is the one
        # its products give; a cover uses each angle link at most twice, so
        # no exponent passes 2 and the keys need no overflow check
        acc: dict = {}
        for rest, piece in first.items():
            _mul_acc(acc, piece, cover(rest), -1)
        memo[mask] = acc
        return acc

    # the global sign (-1)^n is 1, as the n = 2E nodes come in edge pairs
    try:
        return MPoly(ns, _nonzero(cover((1 << len(links)) - 1)))
    finally:
        del cover


def pfaffian_dimer_sum(graph: Graph) -> MPoly:
    """Sum over dimer configurations of the blown-up graph of the product of
    covered angle variables, all signs +1; equals westbury_polynomial, one
    configuration per element of the cycle space, and like it refuses a
    rotation system of genus > 0 and then 2^(E - V + 1) terms past
    TERM_BUDGET."""
    _check_planar_route(graph, "pfaffian_dimer_sum")
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
    del match  # the closure refers to itself: no cycle left to the collector
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
    (coloring, series coefficient, renormalized evaluation, equal?).  A
    coloring with a color past the evaluator's bound is refused (InputError)
    before the first evaluation."""
    colorings = list(admissible_colorings(graph, max_total=degree))
    top = max((c for col in colorings for c in col.values()), default=0)
    if top > _MAX_COLOR:
        raise InputError(f"--check-against-eval at degree {degree} needs color {top}, "
                         f"past the evaluator's bound {_MAX_COLOR}")
    rows = []
    for col in colorings:
        internal = internal_coloring(graph, col)
        coeff = series.coefficient(internal)
        expect = renormalize(graph, col, eval_spin_network(graph, col, holonomy), internal)
        rows.append((col, coeff, expect, coeff == expect))
    return rows
