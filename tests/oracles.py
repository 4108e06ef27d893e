"""Independent oracles used only by the test suite.

These deliberately avoid the library's contraction path: the tetrahedron
oracle is the classical single-sum factorial formula, the naive edge
operator applies first-order derivatives one at a time, the naive
determinant is cofactor expansion, the spinor phase pairs 2x2 SU(2)
matrices with a Hopf spinor instead of multiplying quaternions, the
report text is json.dumps of a rounded copy (a polynomial expanded into its
term list) instead of the CLI's one-pass writer, the curve sum walks
every cover of the blown-up graph instead of memoising by uncovered nodes,
the cycle polynomial tests all 2^E edge subsets instead of walking the
cycle space, the admissible colorings filter every tuple of colors instead
of taking a closing edge's colors from a range, and the configuration
search solves one restart at a time with a single-start
Levenberg-Marquardt instead of stepping a batch of them.  The
truncated determinant and the series recurrence are the library's before
its row kernel and residue encoding: B's powers as dicts of entries, one
_mul_acc per entry pair with its exponent check, and the recurrence on the
coefficient objects as given.  The
exact evaluation by squaring is the contraction as the library ran it
before its one-pass angle powers and term-dict edge kernel: each angle
power by MPoly.pow, each edge by one _mul_acc per matched group pair, with
the factor products and the term-budget checks in the order that kernel ran
them.  The greedy evaluation is the contraction before its order was
planned once per graph: each coloring picks its own edges, cheapest
first.  The angle form is the holonomy's before its denominators were
cleared: the adjugates' products on Gaussian rationals.  The Monte-Carlo
integrands are the library's before they moved to contiguous quaternion
components: each Hamilton product on strided (..., 4) views, stacked, and
each inverse as q * _CONJ, formed again wherever it is used.

Beside the oracles stand helpers the library has no use for: monomials,
truncation, the dense matrices P + Q and W1 that det_poly cross-checks, and
the diagonal holonomy.
"""

import itertools
import json
import warnings
from fractions import Fraction
from functools import reduce
from math import factorial, lcm, prod

import numpy as np

from spinnets import asymptotics, evaluator, polyring
from spinnets.errors import InputError
from spinnets.evaluator import theta_value
from spinnets.graphs import (Holonomy, _adj2, crossing_sign, internal_coloring, is_admissible,
                             vertex_colors)
from spinnets.haar import _CONJ
from spinnets.polyring import (MAX_EXPONENT, MPoly, Namespace, _check_exponents, _mul_acc,
                               _nonzero, _over_budget)
from spinnets.rational import QQi, denominator, div_exact, narrow
from spinnets.series import _blown_up

# bundled tetrahedron edge ids in the single-sum formula's positions:
# triples (A,B,E), (C,D,E), (A,D,F), (B,C,F) match vertices a, b, c, d
TET_POSITIONS = {"A": "ac", "B": "ad", "C": "bd", "D": "bc", "E": "ab", "F": "cd"}


def tet_single_sum(A, B, C, D, E, F) -> Fraction:
    """Classical single-sum value of the tetrahedral network with vertex
    triples (A,B,E), (C,D,E), (A,D,F), (B,C,F)."""
    a = [(A + B + E) // 2, (C + D + E) // 2, (A + D + F) // 2, (B + C + F) // 2]
    b = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    lo, hi = max(a), min(b)
    if lo > hi:
        return Fraction(0)
    total = Fraction(0)
    for s in range(lo, hi + 1):
        num = factorial(s + 1) * (-1 if s % 2 else 1)
        den = 1
        for ai in a:
            den *= factorial(s - ai)
        for bj in b:
            den *= factorial(bj - s)
        total += Fraction(num, den)
    pref = Fraction(1)
    for bj in b:
        for ai in a:
            pref *= factorial(bj - ai)
    for x in (A, B, C, D, E, F):
        pref /= factorial(x)
    return pref * total


def tet_value_oracle(coloring: dict) -> Fraction:
    """Exact value of the bundled tetrahedron network for an admissible coloring."""
    return tet_single_sum(*(coloring[TET_POSITIONS[k]] for k in "ABCDEF"))


def tet_bracket_oracle(coloring: dict) -> Fraction:
    """Exact squared-evaluation bracket of the bundled tetrahedron."""
    v = tet_value_oracle(coloring)
    den = Fraction(1)
    for tri in (("ac", "ad", "ab"), ("ab", "bd", "bc"), ("bc", "cd", "ac"), ("cd", "bd", "ad")):
        den *= theta_value(*(coloring[e] for e in tri))
    return v * v / den


def naive_edge_operator(p: MPoly, z1, w1, z2, w2, c: int) -> MPoly:
    """(1/c!^2) (d_z1 d_w2 - d_z2 d_w1)^c via repeated single derivatives."""

    def deriv(q: MPoly, name: str) -> MPoly:
        ns = q.ns
        sh = ns.shift(name)
        out = {}
        for k, coeff in q.terms.items():
            e = (k >> sh) & 63
            if e:
                kk = k - (1 << sh)
                cur = out.get(kk)
                val = coeff * e
                out[kk] = val if cur is None else cur + val
        return MPoly(ns, {k: v for k, v in out.items() if v})

    cur = p
    for _ in range(c):
        cur = deriv(deriv(cur, z1), w2) - deriv(deriv(cur, z2), w1)
    # set the four variables to zero: keep monomials free of them
    ns = cur.ns
    shifts = [ns.shift(v) for v in (z1, w1, z2, w2)]
    kept = {k: v for k, v in cur.terms.items() if all(((k >> s) & 63) == 0 for s in shifts)}
    return MPoly(ns, kept).scalar_mul(Fraction(1, factorial(c) ** 2))


def edge_operator_by_products(factors: list, z1, w1, z2, w2, c: int) -> MPoly:
    """polyring.apply_edge_operator with the factors but the largest
    multiplied as MPoly, both sides grouped by their edge part, and one
    _mul_acc per matched group pair.  Each product checks its exponents,
    then its term count |p|·|f| against polyring.TERM_BUDGET; the
    contraction checks its exponents, then the sum of |g_p|·|g_q| over the
    matched group pairs."""
    *rest, q = sorted(factors, key=lambda f: len(f.terms))
    ns = q.ns
    p = rest[0] if rest else MPoly.const(ns, 1)
    for f in rest[1:]:
        _check_exponents(ns, p.terms, f.terms)
        if len(p.terms) * len(f.terms) > polyring.TERM_BUDGET:
            raise _over_budget(len(p.terms) * len(f.terms), "a factor product")
        p = p * f
    _check_exponents(ns, p.terms, q.terms)
    s_z1, s_w1, s_z2, s_w2 = (ns.shift(v) for v in (z1, w1, z2, w2))
    edge_part = sum(MAX_EXPONENT << s for s in (s_z1, s_w1, s_z2, s_w2))

    def groups(terms):
        out = {}
        for k, x in terms.items():
            out.setdefault(k & edge_part, {})[k & ~edge_part] = x
        return out

    q_groups = groups(q.terms)
    pairs = []
    for ep, gp in groups(p.terms).items():
        for a2 in range(max(0, c - MAX_EXPONENT), min(c, MAX_EXPONENT) + 1):
            a1 = c - a2
            pattern = (a1 << s_z1) | (a2 << s_w1) | (a2 << s_z2) | (a1 << s_w2)
            gq = q_groups.get(pattern - ep)
            if gq is not None:
                pairs.append((gp, gq, (-1) ** a2 * factorial(a1) * factorial(a2)))
    bound = sum(len(gp) * len(gq) for gp, gq, _ in pairs)
    if bound > polyring.TERM_BUDGET:
        raise _over_budget(bound, "an edge contraction")
    out: dict = {}
    for gp, gq, w in pairs:
        _mul_acc(out, gp, gq, w)
    return MPoly(ns, _nonzero(out))


def eval_by_squaring(graph, coloring: dict, holonomy=None, trace=None) -> QQi:
    """evaluator.eval_spin_network for an admissible coloring, with each
    angle power by MPoly.pow and each edge by edge_operator_by_products, in
    the same planned order.  When trace is a list, each step appends (the
    edge's four variable names, the term counts of its factors, the term
    count of the result)."""
    if not is_admissible(graph, coloring):
        return QQi(0)
    ns = Namespace(x for h in graph.halfedges for x in ("z@" + h, "w@" + h))
    bit = {h: 1 << i for i, h in enumerate(graph.halfedges)}
    internal = internal_coloring(graph, coloring)
    scale = prod(factorial(coloring[e]) for e in graph.edge_ids)
    factors = []
    for aid, _, _, (g, h) in graph.angles:
        n = internal[aid]
        if n:
            coeffs, den = ((0, 1, -1, 0), 1) if holonomy is None else holonomy.angle_form(g, h)
            monomials = ({"z@" + g: 1, "z@" + h: 1}, {"z@" + g: 1, "w@" + h: 1},
                         {"w@" + g: 1, "z@" + h: 1}, {"w@" + g: 1, "w@" + h: 1})
            form = MPoly(ns, {ns.encode(m): x for m, x in zip(monomials, coeffs) if x})
            factors.append((bit[g] | bit[h], form.pow(n)))
            scale *= den ** n
    for e, em, names in evaluator._plan(graph).edges:
        if not coloring[e]:
            continue
        gathered = [f for f in factors if f[0] & em]
        factors = [f for f in factors if not f[0] & em]
        contracted = edge_operator_by_products([p for _, p in gathered], *names, coloring[e])
        if trace is not None:
            trace.append((names, tuple(len(p.terms) for _, p in gathered), len(contracted.terms)))
        if contracted.is_zero():
            return QQi(0)
        factors.append((reduce(int.__or__, (m for m, _ in gathered)) & ~em, contracted))
    value = div_exact(QQi(1) * prod(p.constant_term() for _, p in factors), scale)
    if sum(coloring.values()) % 2:
        value = -value
    return value if crossing_sign(graph, coloring) > 0 else -value


def eval_greedy(graph, coloring: dict, holonomy=None) -> QQi:
    """evaluator.eval_spin_network as it ran before its contraction order
    was planned once per graph: the same angle powers and edge kernel, but
    each step contracts the nonzero-color edge whose factors have the fewest
    terms in all, the earliest such edge on a tie."""
    if not is_admissible(graph, coloring):
        return QQi(0)
    if holonomy is None:
        holonomy = Holonomy.trivial(graph)
    plan = evaluator._plan(graph)
    internal = internal_coloring(graph, coloring)
    scale = prod(factorial(c) for c in coloring.values())
    factors = []  # (half-edge mask, polynomial)
    for a, (aid, *_) in enumerate(graph.angles):
        n = internal[aid]
        if n:
            d, power = plan.power(a, n, holonomy)
            factors.append((plan.angles[a][5], power))
            scale *= d
    remaining = [edge for edge in sorted(plan.edges, key=lambda x: graph.edge_index[x[0]])
                 if coloring[edge[0]]]
    while remaining:
        costs = [sum(len(p.terms) for m, p in factors if m & em) for _, em, _ in remaining]
        e, em, names = remaining.pop(costs.index(min(costs)))
        gathered = [f for f in factors if f[0] & em]
        factors = [f for f in factors if not f[0] & em]
        contracted = polyring.apply_edge_operator([p for _, p in gathered], *names, coloring[e])
        if contracted.is_zero():
            return QQi(0)
        factors.append((reduce(int.__or__, (m for m, _ in gathered)) & ~em, contracted))
    value = div_exact(QQi(1) * prod(p.constant_term() for _, p in factors), scale)
    if sum(coloring.values()) % 2:
        value = -value
    return value if crossing_sign(graph, coloring) > 0 else -value


def naive_det(m) -> MPoly:
    """Cofactor-expansion determinant."""
    n = len(m)
    if n == 1:
        return m[0][0]
    ns = m[0][0].ns
    total = MPoly.zero(ns)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = m[0][j] * naive_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def monomial(ns, exps: dict, coeff) -> MPoly:
    """coeff times the monomial with exponents exps."""
    return MPoly(ns, {ns.encode(exps): coeff} if coeff else {})


def truncated(p: MPoly, max_degree: int) -> MPoly:
    """p with every monomial of total degree > max_degree dropped."""
    deg = p.ns.degree
    return MPoly(p.ns, {k: c for k, c in p.terms.items() if deg(k) <= max_degree})


def pq_full(pq) -> list:
    """Dense list-of-lists P + Q over MPoly, the input of det_poly."""
    n = len(pq.basis)
    idx = {b: i for i, b in enumerate(pq.basis)}
    rows = [[MPoly.zero(pq.ns) for _ in range(n)] for _ in range(n)]
    for r, cols in pq.p.items():
        for c, v in cols.items():
            rows[idx[r]][idx[c]] = rows[idx[r]][idx[c]] + MPoly.const(pq.ns, v)
    for r, cols in pq.q.items():
        for c, v in cols.items():
            rows[idx[r]][idx[c]] = rows[idx[r]][idx[c]] + v
    return rows


def w1_matrix(graph, t: dict):
    """(namespace, dense half-edge matrix W1 as a list of lists of MPoly) of
    the diagonal holonomy diag(t_h, 1/t_h), the input of det_poly, built from
    t itself: 1 from left to right and -1 back per edge, t_h/t_g X_a from g to
    h and -t_g/t_h X_a back per angle a = (g, h).  It reads no angle form, so
    it checks the curve sum's links independently."""
    ns = Namespace(graph.angle_ids)
    idx = {h: i for i, h in enumerate(graph.halfedges)}
    # one edge term (key 0) and one angle term at most per entry: keys differ
    terms = [[{} for _ in idx] for _ in idx]
    for e, l, r in graph.edges:
        terms[idx[l]][idx[r]][0] = 1
        terms[idx[r]][idx[l]][0] = -1
    for aid, v, (i, j), (g, h) in graph.angles:
        key = ns.encode({aid: 1})
        terms[idx[g]][idx[h]][key] = div_exact(t[h], t[g])
        terms[idx[h]][idx[g]][key] = -div_exact(t[g], t[h])
    return ns, [[MPoly(ns, entry) for entry in row] for row in terms]


def diagonal_holonomy(graph, t: dict) -> Holonomy:
    """Diagonal exact holonomy diag(t_h, 1/t_h) from nonzero rationals."""
    return Holonomy(graph, {h: ((t[h], 0), (0, 1 / Fraction(t[h]))) for h in graph.halfedges})


def hopf_section(n):
    """A unit spinor over the unit vector n: |u1|^2-|u2|^2 = n_z and
    2 conj(u1) u2 = n_x + i n_y."""
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])


def spinor_phase(gv, gw, n) -> complex:
    """<gv u, gw u> for SU(2) matrices gv, gw and the Hopf spinor u over n."""
    u = hopf_section(n)
    return complex(np.vdot(gv @ u, gw @ u))


def mpoly_obj(p: MPoly) -> list:
    """The term list a report gives for p: per key in order, its exponents
    by name and its coefficient's real and imaginary parts as text."""
    out = []
    for k in sorted(p.terms):
        c = p.terms[k]
        c = c if isinstance(c, QQi) else QQi(c)
        out.append({"exponents": p.ns.decode(k), "re": str(c.re), "im": str(c.im)})
    return out


def _sanitize(obj):
    """Round floats to 10 significant digits, folding -0.0 into 0.0, turn
    tuples into lists and polynomials into their term lists."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}") + 0.0
    if isinstance(obj, MPoly):
        return mpoly_obj(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_text(obj) -> str:
    """The text of a CLI report object, without its final newline."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2)


def curve_sum_walk(graph, holonomy=None) -> MPoly:
    """series.abelian_curve_sum by walking every cover of the blown-up graph
    once: each dimer or oriented cycle through the lowest uncovered node in
    turn, the sign kept as a running parity."""
    ns, links = _blown_up(graph, holonomy)
    n = len(links)
    adj = [sorted(row.items()) for row in links]
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


def westbury_by_subsets(graph) -> MPoly:
    """series.westbury_polynomial by testing every one of the 2^E edge
    subsets: a subset counts when it meets each vertex in 0 or 2 slots."""
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


def admissible_colorings_brute(graph, max_color=None, max_total=None) -> list:
    """graphs.admissible_colorings as a list, from every tuple of colors
    0..cap per edge in lexicographic order, kept when admissible and within
    the total."""
    cap = max_color if max_color is not None else max_total
    colorings = (dict(zip(graph.edge_ids, cols))
                 for cols in itertools.product(range(cap + 1), repeat=len(graph.edge_ids))
                 if max_total is None or sum(cols) <= max_total)
    return [col for col in colorings if is_admissible(graph, col)]


def lm_single(fun, x0, *, jac, xtol, ftol, gtol, max_nfev):
    """Levenberg-Marquardt from one start x0 (n,), fun and jac on 1-D x,
    with Nielsen's damping update (Madsen, Nielsen & Tingleff 2004,
    algorithm 3.16): the solver asymptotics.least_squares must reproduce
    row by row.  Returns (x, nfev); a non-finite start raises ValueError and
    a singular damped normal matrix raises LinAlgError."""
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    nfev = 1
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the starting point")
    cost = 0.5 * float(f @ f)
    J = jac(x)
    A, g = J.T @ J, J.T @ f
    mu, nu = 1e-3 * float(np.max(np.diag(A))), 2.0
    eye = np.eye(len(x))
    while nfev < max_nfev and np.max(np.abs(g)) > gtol:
        h = np.linalg.solve(A + mu * eye, -g)
        if np.linalg.norm(h) <= xtol * (np.linalg.norm(x) + xtol):
            break
        f_new = fun(x + h)
        nfev += 1
        cost_new = 0.5 * float(f_new @ f_new)
        rho = (cost - cost_new) / (0.5 * float(h @ (mu * h - g)))
        if not rho > 0:  # uphill, or residuals not finite
            mu, nu = mu * nu, 2.0 * nu
            continue
        small_drop = cost - cost_new <= ftol * cost
        x, f, cost = x + h, f_new, cost_new
        J = jac(x)
        A, g = J.T @ J, J.T @ f
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        if small_drop:
            break
    return x, nfev


def find_configs_per_restart(graph, coloring, restarts=200, tol=1e-10, seed=7):
    """asymptotics.find_configs with one lm_single solve per restart, each
    start drawn on its own: (configurations, per-restart nfev with None for
    a restart that raised).  The search system is read from the module at
    call time, so a test's patch of it reaches both searches."""
    asymptotics._strict_triangles(graph, coloring)
    ne = len(graph.edge_ids)
    closure, residuals, jac = asymptotics._search_system(graph, coloring)
    rng = np.random.default_rng(seed)
    found = []
    nfevs = []

    def same_class(cfg, other):
        return (cfg.triple_sign == other.triple_sign
                and float(np.max(np.abs(cfg.gram - other.gram))) < 1e-6)

    raised = []
    for _ in range(restarts):
        x0 = rng.standard_normal((ne, 3))
        x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
        try:
            x, nfev = lm_single(residuals, x0.ravel(), jac=jac,
                                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raised.append(exc)
            nfevs.append(None)
            continue
        nfevs.append(nfev)
        p = x.reshape(ne, 3)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        res = float(np.max(np.linalg.norm(closure(p), axis=1)))
        if res > tol:
            continue
        cfg = asymptotics._make_config(asymptotics._canonical_rotation(p), res)
        for other in found:
            if same_class(cfg, other):
                other.hits += 1
                break
        else:
            found.append(cfg)

    for cfg in list(found):
        neg = asymptotics._make_config(asymptotics._canonical_rotation(-cfg.vectors),
                                       cfg.residual, hits=0)
        if not any(same_class(neg, other) for other in found):
            found.append(neg)

    if raised:
        warnings.warn(f"find_configs: {len(raised)} of {restarts} restarts raised; "
                      f"first: {raised[0]!r}", stacklevel=2)
    if not found:
        warnings.warn("find_configs: no restart converged below tol; "
                      "empty configuration set", stacklevel=2)
    elif restarts < 10 * len(found):
        warnings.warn(f"find_configs: {len(found)} classes from {restarts} restarts; "
                      "components may have been missed", stacklevel=2)
    found.sort(key=lambda c: (c.triple_sign, np.round(c.gram, 8).tobytes()))
    return found, nfevs


def series_recurrence_objects(parts, max_degree: int, weight, base: int = 1) -> MPoly:
    """polyring._series_recurrence on the coefficient objects as given:
    F_0 = parts[0] and k·F_k = sum_m weight(m, k)·g_m·F_{k-m}, each product
    checked for exponents and each division by k through div_exact; the
    result's degree-k part is then divided by base^k."""
    ns = parts[0].ns
    out = [parts[0]]
    for k in range(1, max_degree + 1):
        acc: dict = {}
        for m in range(1, k + 1):
            a, b = parts[m].terms, out[k - m].terms
            if a and b:
                _check_exponents(ns, a, b)
                _mul_acc(acc, a, b, weight(m, k))
        out.append(MPoly(ns, {key: div_exact(c, k) for key, c in acc.items() if c}))
    s = MPoly(ns, {key: c for part in out for key, c in part.terms.items()})
    if base == 1:
        return s
    deg = ns.degree
    return MPoly(ns, {k: div_exact(c, base ** deg(k)) for k, c in s.terms.items()})


def inverse_series_objects(d: MPoly, max_degree: int) -> MPoly:
    """polyring.inverse_series by series_recurrence_objects."""
    return series_recurrence_objects(polyring._unit_parts(d, max_degree, "inverse_series"),
                                     max_degree, lambda m, k: -k)


def inv_sqrt_series_objects(d: MPoly, max_degree: int) -> MPoly:
    """polyring.inv_sqrt_series by series_recurrence_objects."""
    return series_recurrence_objects(polyring._unit_parts(d, max_degree, "inv_sqrt_series"),
                                     max_degree, lambda m, k: (m - 2 * k) << 2 * m - 1, 4)


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


def truncated_det_entrywise(pq, max_degree: int) -> MPoly:
    """series.truncated_det with B = P·Q and its powers as dicts of entries
    (each a term dict, Q's coefficients used as given), one _mul_acc per
    entry pair, and Newton's identities by series_recurrence_objects."""
    if max_degree < 0:
        raise InputError(f"truncated_det needs a degree >= 0, got {max_degree}")
    ns = pq.ns
    max_degree = min(max_degree, 4 * len(ns) // 3)
    b: dict = {}
    for r, cols in pq.p.items():
        (k, s), = cols.items()
        if pq.q.get(k):
            b[r] = {j: {key: narrow(s * c) for key, c in poly.terms.items()}
                    for j, poly in pq.q[k].items()}
    powers = {0: {i: {i: {0: 1}} for i in b}, 1: b}
    top = max(1, (max_degree + 1) // 2)
    for m in range(2, top + 1):
        powers[m] = _sparse_matmul(powers[m - 1], b, ns)
    traces = [MPoly(ns, {0: 1})]
    for m in range(1, max_degree + 1):
        p = min(top, m - 1)
        traces.append(_pair_trace(powers[p], powers[m - p], ns))
    return series_recurrence_objects(traces, max_degree, lambda m, k: -1)


def angle_form_fractions(holonomy, g, h):
    """Holonomy.angle_form on the cells as given: the adjugates' products on
    Gaussian rationals, then the common denominator of the coefficients."""
    (a, b), (c, d) = _adj2(holonomy.entries[g])
    (a2, b2), (c2, d2) = _adj2(holonomy.entries[h])
    coeffs = (a * c2 - a2 * c, a * d2 - b2 * c, b * c2 - a2 * d, b * d2 - b2 * d)
    den = lcm(*(denominator(x) for x in coeffs))
    return tuple(narrow(x * den) for x in coeffs), den


# ---------------------------------------------------------------------------
# Monte-Carlo integrands as the library evaluated them on (..., 4) stacks:
# strided component views, np.stack'ed products and q * _CONJ for q^-1
# ---------------------------------------------------------------------------

def chebyshev_u_recurrence(n, x):
    """haar._chebyshev_u with 2.0 * x formed again at every step."""
    if n == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def qmul_stack(p, q):
    """Hamilton product of quaternion arrays (..., 4), broadcast."""
    a, b, c, d = (p[..., i] for i in range(4))
    e, f, g, h = (q[..., i] for i in range(4))
    return np.stack([a * e - b * f - c * g - d * h,
                     a * f + b * e + c * h - d * g,
                     a * g - b * h + c * e + d * f,
                     a * h + b * g - c * f + d * e], axis=-1)


def edge_half_traces_stack(graph, conj, g):
    """haar._edge_half_traces with each c_e g_w c_e^-1 by two qmul_stack."""
    vi = graph.vertex_index
    out = {}
    for e, l, r in graph.edges:
        qv = g[:, vi[graph.vertex_of[l]], :]
        qw = g[:, vi[graph.vertex_of[r]], :]
        if conj is not None:
            qw = qmul_stack(qmul_stack(conj[e], qw), conj[e] * _CONJ)
        out[e] = np.einsum("ij,ij->i", qv, qw)
    return out


def bracket_integrand_stack(graph, coloring, conj):
    """mc_bracket's integrand on edge_half_traces_stack."""
    def integrand(g):
        half = edge_half_traces_stack(graph, conj, g)
        vals = np.ones(len(g))
        for e in graph.edge_ids:
            vals *= chebyshev_u_recurrence(coloring[e], half[e])
        return vals
    return integrand


def w_integrand_stack(graph, y, conj):
    """mc_W_point's integrand on edge_half_traces_stack."""
    def integrand(g):
        half = edge_half_traces_stack(graph, conj, g)
        vals = np.ones(len(g))
        for e in graph.edge_ids:
            vals /= 1.0 - 2.0 * y[e] * half[e] + y[e] * y[e]
        return vals
    return integrand


def orthogonality_integrand_stack(graph, coloring):
    """mc_orthogonality's integrand with psi g_v psi^-1 by two qmul_stack
    per half-edge and g_e^-1 formed again at each of its half-edges."""
    scale = 1.0
    for cols in vertex_colors(graph, coloring):
        scale *= float(theta_value(*cols))
    for e in graph.edge_ids:
        scale *= coloring[e] + 1
    halfinfo = [(graph.edge_index[e], vi, coloring[e])
                for vi, es in enumerate(graph.vertex_edges) for e in es]

    def integrand(gv, ge, psi):
        vals = np.full(len(gv), scale)
        for k, (ei, vi, c) in enumerate(halfinfo):
            p = psi[:, k]
            rotated = qmul_stack(qmul_stack(p, gv[:, vi]), p * _CONJ)
            half = np.einsum("ij,ij->i", ge[:, ei] * _CONJ, rotated)
            vals *= chebyshev_u_recurrence(c, half)
        return vals
    return integrand
