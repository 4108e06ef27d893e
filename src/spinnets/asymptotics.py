"""Critical configurations, non-degeneracy hypotheses and the leading-order
asymptotics of the squared-evaluation bracket under color rescaling.

A configuration assigns a unit vector to every oriented edge so that the
color-weighted vectors close at each vertex.  Configurations are found by
multistart least squares (a numpy Levenberg-Marquardt with an analytic
Jacobian, run once per chunk of restarts on stacked arrays, every restart
on the path and the bits of a solve from its start alone), deduplicated
modulo simultaneous rotation, and kept in +/- pairs.
Every rotation is an orthonormal frame built from two edge vectors.  For a
pair of configurations the per-edge phases come from the unique per-vertex
rotations carrying one onto the other, as quaternion lifts (the unit
quaternions of `haar`); the Hessian data enters through three quadratic forms
whose pruned determinants (products of nonzero eigenvalues) feed the two-sum
leading-order formula.  Everything in that formula but the per-pair phase
and the overall prefactor is independent of the scale k, so
`asymptotic_estimate` computes it once per configuration and per ordered pair
and then evaluates every k in the list it is given."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, HypothesisError, NumericalError
from .graphs import Graph, vertex_colors
from .haar import _CONJ, _qmul
from .haar import su2_matrix  # noqa: F401  perfbench/tracer.py patches it here by name

__all__ = [
    "Configuration",
    "CriticalPair",
    "HypothesesReport",
    "find_configs",
    "critical_pair",
    "check_hypotheses",
    "detprime",
    "detprime_limit",
    "asymptotic_estimate",
    "scale_prefactor",
    "check_phase_bound",
    "PHASE_TOL",
]

_KERNEL_THRESHOLD = 1e-8
_PHASE_THRESHOLD = 1e-6
_EXTRAPOLATION_TOL = 1e-4  # relative Richardson spread detprime_limit accepts
_LEVELS = range(6, 13)  # the levels j, h = 2^-j, that detprime_limit extrapolates from
_CHUNK = 64  # restarts per batched least-squares call; bounds the search's memory

# A pair phase sum_e (k c_e + 1) theta_e is refused once its error bound
# k * sum_e c_e * dtheta passes PHASE_TOL radian, dtheta = max(tol,
# _THETA_ROUNDING) being the error taken for each theta_e: the search accepts a
# configuration at a closure residual up to tol, and at a residual near 1e-16
# the theta_e of the all-2 tetrahedron repeat across seeds only to 4.4e-16.
PHASE_TOL = 0.1
_THETA_ROUNDING = 1e-14


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass
class Configuration:
    """Unit vector per edge (oriented left -> right), with dedup metadata."""

    vectors: np.ndarray          # (E, 3)
    residual: float
    gram: np.ndarray             # (E, E) pairwise inner products
    triple_sign: int             # sign of the first independent triple product
    hits: int = 1


def _make_config(vectors, residual, hits=1):
    gram = vectors @ vectors.T
    n = len(vectors)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = float(np.linalg.det(vectors[[i, j, k]]))
                if abs(d) > 1e-6:
                    return Configuration(vectors, residual, gram, 1 if d > 0 else -1, hits)
    return Configuration(vectors, residual, gram, 0, hits)


def _strict_triangles(graph: Graph, coloring: dict):
    for (v, _), (a, b, c) in zip(graph.vertices, vertex_colors(graph, coloring)):
        if a >= b + c or b >= a + c or c >= a + b:
            raise HypothesisError(
                f"coloring violates strict triangle inequalities at vertex {v!r}")


def _incidence(graph: Graph):
    """Per vertex, the edge index (V, 3) of its three half-edges and their
    orientation sign (V, 3): +1 on a left half-edge, -1 on a right one."""
    idx = np.array([[graph.edge_index[e] for e in es] for es in graph.vertex_edges])
    sign = np.array([[1.0 if graph.edge_of[h][1] == "left" else -1.0 for h in hs]
                     for _, hs in graph.vertices])
    return idx, sign


def _search_system(graph: Graph, coloring: dict):
    """The closure map: unit vectors (..., E, 3) -> (..., V, 3), each row the
    sum over the vertex's three half-edges of color x orientation sign x edge
    vector, added left to right; the search residual x -> (closure(m/|m|),
    |m|^2 - 1) in the flattened edge vectors m (E, 3), and its Jacobian: the
    block of vertex v and edge e is sum_j coef[v, j] (I - u_e u_e^T)/|m_e|
    over the half-edges j of v on e (u = m/|m|), and the norm row of edge e
    is 2 m_e^T.  Both maps take x of shape (..., 3E), one start per row."""
    idx, sign = _incidence(graph)
    coef = np.array([float(coloring[e]) for e in graph.edge_ids])[idx] * sign
    nv, ne = len(idx), len(graph.edge_ids)
    c = np.zeros((nv, ne))
    np.add.at(c, (np.arange(nv)[:, None], idx), coef)
    diag = np.eye(ne)[:, :, None]

    def closure(p):
        t = coef[:, :, None] * p[..., idx, :]
        return t[..., 0, :] + t[..., 1, :] + t[..., 2, :]

    def residuals(x):
        m = x.reshape(x.shape[:-1] + (ne, 3))
        norms = np.linalg.norm(m, axis=-1)
        r = closure(m / norms[..., None]).reshape(x.shape[:-1] + (3 * nv,))
        return np.concatenate([r, norms * norms - 1.0], axis=-1)

    def jac(x):
        lead = x.shape[:-1]
        m = x.reshape(lead + (ne, 3))
        norms = np.linalg.norm(m, axis=-1)
        u = m / norms[..., None]
        proj = (np.eye(3) - u[..., :, None] * u[..., None, :]) / norms[..., None, None]
        blocks = (c[:, :, None, None] * proj[..., None, :, :, :]).swapaxes(-3, -2)
        return np.concatenate([blocks.reshape(lead + (3 * nv, 3 * ne)),
                               (2.0 * diag * m[..., None, :, :]).reshape(lead + (ne, 3 * ne))],
                              axis=-2)
    return closure, residuals, jac


@dataclass
class _LMResult:
    x: np.ndarray        # (B, n), the last accepted point of every row
    nfevs: np.ndarray    # (B,) evaluations of fun per row
    errors: list         # per row, the exception that stopped it, or None
    nfev: int            # evaluations over the whole batch


def _row_dot(a, b):
    """Per-row dot products of two (B, n) stacks.  matmul forms each as one
    dot of two vectors, the same bits as a 1-D a @ b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _normal_equations(J, f):
    """J^T J and J^T f of every row of a (B, m, n) stack and a (B, m) one."""
    Jt = J.transpose(0, 2, 1)
    return Jt @ J, (Jt @ f[:, :, None])[:, :, 0]


def _solve_rows(M, b):
    """Solutions of M x = b for a (B, n, n) and a (B, n) stack, and the
    indices of the rows whose matrix is singular with their LinAlgErrors.  A
    stacked solve raises for the whole stack, so the rows are then solved
    one by one."""
    try:
        return np.linalg.solve(M, b[:, :, None])[:, :, 0], {}
    except np.linalg.LinAlgError:
        pass
    h = np.zeros_like(b)
    singular = {}
    for i in range(len(b)):
        try:
            h[i] = np.linalg.solve(M[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            singular[i] = exc
    return h, singular


def least_squares(fun, x0, *, jac, xtol, ftol, gtol, max_nfev):
    """Levenberg-Marquardt minima of |fun(x)|^2 / 2 from every row of x0
    (B, n), with Nielsen's damping update, starting from
    mu = 1e-3 max diag(J^T J) (Madsen, Nielsen & Tingleff 2004, algorithm
    3.16).  fun maps (B', n) rows to (B', m) residuals and jac maps them to
    (B', m, n) Jacobians.  All rows step together; each takes exactly the
    path, and the floating-point operations, of a solve from its start alone.

    A row stops when no gradient entry exceeds gtol, when a step is at most
    xtol (|x| + xtol) long, when an accepted step lowers the cost by at most
    ftol times it, or after max_nfev evaluations of fun.  A trial point with
    non-finite residuals is rejected like any other uphill step.  A row whose
    start has non-finite residuals gets a ValueError, and one whose damped
    normal matrix is singular gets the solver's LinAlgError; the other rows
    go on."""
    x = np.array(x0, dtype=float)
    nb, n = x.shape
    f = fun(x)
    nfevs = np.ones(nb, dtype=int)
    errors = [None] * nb
    finite = np.all(np.isfinite(f), axis=1)
    for i in np.flatnonzero(~finite):
        errors[i] = ValueError("residuals are not finite at the starting point")
    act = np.flatnonzero(finite)  # the rows still stepping
    cost = np.zeros(nb)
    A, g = np.zeros((nb, n, n)), np.zeros((nb, n))
    mu, nu = np.zeros(nb), np.full(nb, 2.0)
    cost[act] = 0.5 * _row_dot(f[act], f[act])
    A[act], g[act] = _normal_equations(jac(x[act]), f[act])
    mu[act] = 1e-3 * np.max(np.diagonal(A[act], axis1=1, axis2=2), axis=1)
    eye = np.eye(n)
    while act.size:
        act = act[(nfevs[act] < max_nfev) & (np.max(np.abs(g[act]), axis=1) > gtol)]
        h, singular = _solve_rows(A[act] + mu[act, None, None] * eye, -g[act])
        go = ~(np.sqrt(_row_dot(h, h)) <= xtol * (np.sqrt(_row_dot(x[act], x[act])) + xtol))
        for i, exc in singular.items():
            errors[act[i]] = exc
            go[i] = False
        act, h = act[go], h[go]
        x_new = x[act] + h
        f_new = fun(x_new)
        nfevs[act] += 1
        cost_new = 0.5 * _row_dot(f_new, f_new)
        rho = (cost[act] - cost_new) / (0.5 * _row_dot(h, mu[act, None] * h - g[act]))
        keep = ~(rho > 0)  # uphill, or residuals not finite: damp more
        rows = act[keep]
        mu[rows], nu[rows] = mu[rows] * nu[rows], 2.0 * nu[rows]
        down = rho > 0
        rows = act[down]
        small_drop = cost[rows] - cost_new[down] <= ftol * cost[rows]
        x[rows], f[rows], cost[rows] = x_new[down], f_new[down], cost_new[down]
        A[rows], g[rows] = _normal_equations(jac(x[rows]), f[rows])
        # Python floats, row by row: numpy's vectorised ** is not libm's pow
        for i, r in zip(rows, rho[down].tolist()):
            mu[i] = mu[i] * max(1.0 / 3.0, 1.0 - (2.0 * r - 1.0) ** 3)
        nu[rows] = 2.0
        keep[down] = ~small_drop
        act = act[keep]
    return _LMResult(x, nfevs, errors, int(nfevs.sum()))


def _frame(p1, p2):
    """Columns p1, the unit part of p2 normal to p1, and their cross product."""
    f1 = p1
    u = p2 - np.dot(p2, p1) * p1
    nu = np.linalg.norm(u)
    if nu < 1e-10:
        raise HypothesisError("rank < 2 at a vertex; cannot build a frame")
    f2 = u / nu
    return np.column_stack([f1, f2, np.cross(f1, f2)])


def _canonical_rotation(vectors):
    """Rotate so the first edge vector is +z and the first independent one
    lies in the xz half-plane with x > 0."""
    v0 = vectors[0]
    for vj in vectors[1:]:
        u = vj - np.dot(vj, v0) * v0
        if np.dot(u, u) > 1e-12:
            # frame columns (v0, u/|u|, v0 x u/|u|) become the z, x, y axes
            return vectors @ _frame(v0, vj)[:, [1, 2, 0]]
    return np.outer(vectors @ v0, [0.0, 0.0, 1.0])


def find_configs(graph: Graph, coloring: dict, restarts: int = 200,
                 tol: float = 1e-10, seed: int = 7):
    """Multistart solve of the closure system on the product of spheres.

    Returns rotation-class representatives (canonically rotated), with -P
    included for every P found.  Completeness is not certified; hit counts
    per class are recorded and a warning is emitted when the restart budget
    looks thin.  The restarts are solved _CHUNK at a time by one batched
    least_squares call.  A restart whose solve stops on a ValueError or a
    LinAlgError is skipped; the count and the error of the lowest-numbered
    such restart go into one warning per call."""
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    _strict_triangles(graph, coloring)
    ne = len(graph.edge_ids)
    closure, residuals, jac = _search_system(graph, coloring)

    rng = np.random.default_rng(seed)
    found: list[Configuration] = []

    def same_class(cfg, other):
        return (cfg.triple_sign == other.triple_sign
                and float(np.max(np.abs(cfg.gram - other.gram))) < 1e-6)

    raised = []
    for start in range(0, restarts, _CHUNK):
        # one draw per chunk gives the numbers of one draw per restart
        x0 = rng.standard_normal((min(_CHUNK, restarts - start), ne, 3))
        x0 /= np.linalg.norm(x0, axis=-1, keepdims=True)
        sol = least_squares(residuals, x0.reshape(len(x0), 3 * ne), jac=jac,
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
        for x, exc in zip(sol.x, sol.errors):
            if exc is not None:
                raised.append(exc)
                continue
            p = x.reshape(ne, 3)
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            res = float(np.max(np.linalg.norm(closure(p), axis=1)))
            if res > tol:
                continue
            cfg = _make_config(_canonical_rotation(p), res)
            for other in found:
                if same_class(cfg, other):
                    other.hits += 1
                    break
            else:
                found.append(cfg)

    # closure under negation (always a solution; a distinct class unless planar)
    for cfg in list(found):
        neg = _make_config(_canonical_rotation(-cfg.vectors), cfg.residual, hits=0)
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
    return found


# ---------------------------------------------------------------------------
# phases of a pair of configurations
# ---------------------------------------------------------------------------

def _quaternion_from_rotation(R):
    """Unit quaternion (w, x, y, z) of a rotation matrix, one of its two
    signs (Shoemake 1985)."""
    t = np.trace(R)
    if t > 0:
        r = np.sqrt(1.0 + t)
        w = 0.5 * r
        x = (R[2, 1] - R[1, 2]) / (2 * r)
        y = (R[0, 2] - R[2, 0]) / (2 * r)
        z = (R[1, 0] - R[0, 1]) / (2 * r)
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k])
        q = np.empty(4)
        q[1 + i] = 0.5 * r
        q[0] = (R[k, j] - R[j, k]) / (2 * r)
        q[1 + j] = (R[j, i] + R[i, j]) / (2 * r)
        q[1 + k] = (R[k, i] + R[i, k]) / (2 * r)
        w, x, y, z = q
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)


@dataclass
class CriticalPair:
    """Pair of configurations with per-edge phases tau_e from the quaternion
    lifts of the vertex rotations; theta_e in (0, pi) is the phase mod pi."""

    P: Configuration
    Q: Configuration
    taus: dict = field(repr=False)
    thetas: dict = field(repr=False)


def critical_pair(graph: Graph, coloring: dict, P: Configuration, Q: Configuration) -> CriticalPair:
    """Vertex rotations g_v with g_v P_e = Q_e, one quaternion lift each, and
    the resulting per-edge phases tau_e = <g_v u_e, g_w u_e> for a spinor u_e
    over P_e: with g = conj(g_v) g_w, tau_e = g_0 - i <g_vec, P_e>."""
    idx, sign = _incidence(graph)
    ps = sign[:, :, None] * P.vectors[idx]
    qs = sign[:, :, None] * Q.vectors[idx]
    lifts = {}
    for (v, _), p, q in zip(graph.vertices, ps, qs):
        R = _frame(q[0], q[1]) @ _frame(p[0], p[1]).T
        if np.linalg.norm(R @ p[2] - q[2]) > 1e-7:
            raise HypothesisError(
                f"no rotation matches the configurations at vertex {v!r}")
        lifts[v] = _quaternion_from_rotation(R)
    taus = {}
    thetas = {}
    for i, (e, l, r) in enumerate(graph.edges):
        g = _qmul(lifts[graph.vertex_of[l]] * _CONJ, lifts[graph.vertex_of[r]])
        t = complex(g[0], -float(g[1:] @ P.vectors[i]))
        if abs(abs(t) - 1.0) > 1e-10:
            raise NumericalError(f"phase at edge {e!r} has |tau| = {abs(t)}")
        t /= abs(t)
        taus[e] = t
        th = np.arctan2(t.imag, t.real) % np.pi
        thetas[e] = th
    return CriticalPair(P, Q, taus, thetas)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

def _cross_matrix(q):
    return np.array([[0.0, -q[2], q[1]], [q[2], 0.0, -q[0]], [-q[1], q[0], 0.0]])


def form_r(graph: Graph, coloring: dict, P: Configuration):
    """3x3 matrix of xi -> sum_e c_e |P_e x xi|^2."""
    r = np.zeros((3, 3))
    for i, e in enumerate(graph.edge_ids):
        p = P.vectors[i]
        r += coloring[e] * (np.eye(3) - np.outer(p, p))
    return r


def _edge_form(graph: Graph, coloring: dict, vectors, gamma=None):
    """3V x 3V matrix of xi -> sum_e gamma_e c_e |p_e x (xi_v - xi_w)|^2 over
    the edge vectors p_e (gamma_e = 1 when gamma is None), and the row slices
    (v, w) of every edge's two ends."""
    rows = {v: slice(3 * i, 3 * i + 3) for v, i in graph.vertex_index.items()}
    n = 3 * len(rows)
    m = np.zeros((n, n), dtype=float if gamma is None else complex)
    ends = []
    for i, (e, l, r) in enumerate(graph.edges):
        p = vectors[i]
        a = coloring[e] * (np.eye(3) - np.outer(p, p))
        if gamma is not None:
            a = gamma[e] * a
        sv, sw = rows[graph.vertex_of[l]], rows[graph.vertex_of[r]]
        m[sv, sv] += a
        m[sw, sw] += a
        m[sv, sw] -= a
        m[sw, sv] -= a
        ends.append((sv, sw))
    return m, ends


def form_qP(graph: Graph, coloring: dict, P: Configuration):
    """6N x 6N real matrix of xi -> sum_e c_e |P_e x (xi_v - xi_w)|^2."""
    return _edge_form(graph, coloring, P.vectors)[0]


def _form_pair(graph: Graph, coloring: dict, pair: CriticalPair, gamma):
    """sum_e c_e [ gamma_e |Q_e x (xi_v - xi_w)|^2 + 2i <Q_e, xi_v x xi_w> ]."""
    m, ends = _edge_form(graph, coloring, pair.Q.vectors, gamma)
    for (e, _, _), q, (sv, sw) in zip(graph.edges, pair.Q.vectors, ends):
        # sign fixed by the 6-dim kernel of the limit form: the per-vertex
        # rotated directions xi_v = R_v eta must be annihilated
        cx = _cross_matrix(q)
        m[sv, sw] += 1j * coloring[e] * cx
        m[sw, sv] += -1j * coloring[e] * cx
    return m


def form_qkappa(graph: Graph, coloring: dict, pair: CriticalPair, kappa: float):
    """Deformed pair form; coefficient (k^2 t^2 + 1)/(k^2 t^2 - 1) per edge."""
    if kappa <= 1.0:
        raise DomainError("kappa must be > 1")
    gamma = {}
    for e, t in pair.taus.items():
        z = (kappa * t) ** 2
        gamma[e] = (z + 1.0) / (z - 1.0)
    return _form_pair(graph, coloring, pair, gamma)


def form_qpp(graph: Graph, coloring: dict, pair: CriticalPair):
    """Limit form at kappa = 1; coefficient -i cot(theta_e) per edge."""
    gamma = {}
    for e, th in pair.thetas.items():
        s = np.sin(th)
        if abs(s) < 1e-12:
            raise DomainError(f"phase at edge {e!r} is degenerate (theta = 0 mod pi)")
        gamma[e] = -1j * np.cos(th) / s
    return _form_pair(graph, coloring, pair, gamma)


# ---------------------------------------------------------------------------
# pruned determinants
# ---------------------------------------------------------------------------

def _eigs(m):
    if np.linalg.norm(m - m.conj().T) < 1e-10 * max(np.linalg.norm(m), 1.0):
        return np.linalg.eigvalsh(m).astype(complex)
    return np.linalg.eigvals(m)


def _kernel_dim(eigs) -> int:
    """Number of eigenvalues below _KERNEL_THRESHOLD x the largest in modulus."""
    mod = np.abs(eigs)
    return int(np.sum(mod < _KERNEL_THRESHOLD * np.max(mod, initial=0.0)))


def _split_kernel(eigs, kernel_dim):
    n_small = _kernel_dim(eigs)
    if n_small != kernel_dim:
        raise HypothesisError(
            f"kernel dimension is {n_small}, expected {kernel_dim}")
    return eigs[np.argsort(np.abs(eigs))][kernel_dim:]


def _detprime_of(eigs, kernel_dim: int) -> complex:
    return complex(np.prod(_split_kernel(eigs, kernel_dim)))


def detprime(m, kernel_dim: int) -> complex:
    """Product of eigenvalues off a kernel of the stated dimension."""
    return _detprime_of(_eigs(np.asarray(m)), kernel_dim)


def _richardson(values):
    """Limit of v(h) at h = 0 sampled at h_j halving each step."""
    t = [list(values)]
    m = 1
    while len(t[-1]) > 1:
        prev = t[-1]
        fac = 2.0 ** m
        t.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
        m += 1
    return t[-1][0], abs(t[-1][0] - t[-2][-1])


def detprime_limit(graph: Graph, coloring: dict, pair: CriticalPair) -> tuple[complex, complex]:
    """Extrapolated limits as kappa -> 1+ of (kappa-1)^{-3} det'(q_kappa) and
    of (kappa-1)^{-3/2} times the product of the square roots of the same
    eigenvalues, both from one eigen-solve per level h = 2^-j, j in _LEVELS."""
    for t in pair.taus.values():
        if abs(t * t - 1.0) < _PHASE_THRESHOLD:
            raise DomainError("pair has a phase at +/-1; not in the oscillatory branch")
    vals = []
    sqrts = []
    for j in _LEVELS:
        h = 2.0 ** (-j)
        m = form_qkappa(graph, coloring, pair, 1.0 + h)
        rest = _split_kernel(_eigs(m), 3)
        vals.append(complex(np.prod(rest)) / h ** 3)
        sqrts.append(complex(np.prod(np.sqrt(rest))) / h ** 1.5)
    lim, err = _richardson(vals)
    if abs(lim) == 0.0 or err / abs(lim) > _EXTRAPOLATION_TOL:
        raise NumericalError(f"det' extrapolation spread {err / max(abs(lim), 1e-300):.2e} "
                             f"exceeds {_EXTRAPOLATION_TOL}")
    slim, serr = _richardson(sqrts)
    if abs(slim) == 0.0 or serr / abs(slim) > _EXTRAPOLATION_TOL:
        raise NumericalError("sqrt det' extrapolation did not converge")
    return lim, slim


# ---------------------------------------------------------------------------
# hypothesis report
# ---------------------------------------------------------------------------

@dataclass
class HypothesesReport:
    """H1-H3 and their diagnostics, rows as the report prints them, with the
    k-independent data the estimate reuses: the configurations, their q_P
    spectra and the critical pair of every ordered pair of distinct
    configurations.  An empty configuration set does not pass."""

    h1: bool
    h2: bool
    h3: bool
    details: dict
    configs: list = field(repr=False)
    spectra: list = field(repr=False)
    pairs: dict = field(repr=False)

    @property
    def passed(self):
        return bool(self.configs) and self.h1 and self.h2 and self.h3

    def to_obj(self):
        """The JSON report: H1-H3, then the rows, which check_hypotheses
        writes as printed."""
        return {"H1": self.h1, "H2": self.h2, "H3": self.h3, **self.details}


def check_hypotheses(graph: Graph, coloring: dict, configs) -> HypothesesReport:
    """Kernel-dimension and phase checks for every configuration and every
    ordered pair of distinct configurations."""
    spectra = [_eigs(form_qP(graph, coloring, P)) for P in configs]
    pairs = {(i, j): critical_pair(graph, coloring, P, Q)
             for i, P in enumerate(configs) for j, Q in enumerate(configs) if i != j}
    h1_detail = [{"config": idx, "kernel_dim": kdim, "pass": kdim == 3}
                 for idx, kdim in enumerate(map(_kernel_dim, spectra))]
    pair_detail = []
    for (i, j), pair in pairs.items():
        min_dev = min(abs(t * t - 1.0) for t in pair.taus.values())
        # noise-level deviations print as 0.0 and the others to 12 digits,
        # so identical runs emit identical bytes
        entry = {"pair": [i, j],
                 "min_abs_tau2_minus_1": float(f"{min_dev:.12g}") if min_dev >= 1e-12 else 0.0,
                 "H2_pass": min_dev > _PHASE_THRESHOLD}
        if entry["H2_pass"]:
            corank = _kernel_dim(_eigs(form_qpp(graph, coloring, pair)))
            entry.update({"qpp_corank": corank, "H3_pass": corank == 6})
        pair_detail.append(entry)
    # H3 fails with any pair that fails H2, whose q'' is not formed
    return HypothesesReport(all(d["pass"] for d in h1_detail),
                            all(d["H2_pass"] for d in pair_detail),
                            all(d.get("H3_pass", False) for d in pair_detail),
                            {"n_configs": len(configs), "configs": h1_detail,
                             "pairs": pair_detail},
                            list(configs), spectra, pairs)


# ---------------------------------------------------------------------------
# leading-order estimate
# ---------------------------------------------------------------------------

def scale_prefactor(graph: Graph, k) -> float:
    """(2N)^{3/2} / (pi k^3)^{N-1} at the scale k, N = E - V; a k at which
    this is not a finite positive float raises DomainError."""
    n_exc = graph.N
    try:
        prefactor = (2.0 * n_exc) ** 1.5 / (np.pi * k ** 3) ** (n_exc - 1)
    except OverflowError:
        prefactor = 0.0
    if not (math.isfinite(prefactor) and prefactor > 0):
        shown = k if k < 10 ** 15 else f"~1e{len(str(k)) - 1}"
        raise DomainError(f"scale k = {shown} is out of floating-point range: the prefactor "
                          "(2N)^(3/2) / (pi k^3)^(N-1) is not a finite positive float")
    return prefactor


def check_phase_bound(coloring: dict, k: int, tol: float):
    """Raise DomainError when the pair phases at the scale k have an error
    bound k * sum_e c_e * dtheta past PHASE_TOL radian, dtheta = max(tol,
    _THETA_ROUNDING) for configurations accepted at closure residual tol.
    Compared in exact arithmetic, so any int k is checked; a tol that is not
    finite and positive is left to find_configs to refuse."""
    if not (math.isfinite(tol) and tol > 0):
        return
    dtheta = max(tol, _THETA_ROUNDING)
    if k * sum(coloring.values()) * Fraction(dtheta) > Fraction(PHASE_TOL):
        shown = k if k < 10 ** 15 else f"~1e{len(str(k)) - 1}"
        raise DomainError(f"scale k = {shown} is past the phase accuracy: its pair-phase "
                          f"error bound k * sum_e c_e * {dtheta:g} passes {PHASE_TOL} radian")


def asymptotic_estimate(graph: Graph, coloring: dict, report: HypothesesReport,
                        ks) -> list[dict]:
    """Two-sum leading-order value of the rescaled bracket at every scale k
    in ks, one row per k, from a passing report of check_hypotheses, whose
    configurations, q_P spectra and critical pairs it reuses.

    First sum over configurations; second over ordered pairs of distinct
    configurations (each +/- class contributes twice the real part, realized
    as the sum over both ordered representatives).  The determinants, the
    critical pairs and their extrapolated limits are computed once; only the
    pair phases and the prefactor depend on k.  A k whose prefactor is not a
    finite positive float raises DomainError before any work."""
    prefactors = [scale_prefactor(graph, k) for k in ks]
    configs = report.configs
    eids = graph.edge_ids
    n_exc = graph.N
    first = 0.0
    root_det_r = []
    for idx, P in enumerate(configs):
        det_r = float(np.linalg.det(form_r(graph, coloring, P)))
        dq = _detprime_of(report.spectra[idx], 3)
        first += np.sqrt(det_r) / np.sqrt(float(dq.real))
        root_det_r.append(np.sqrt(det_r))
    pairs = []  # thetas, k-independent amplitude and denominator
    for (i, _), pair in report.pairs.items():
        _, sqrt_lim = detprime_limit(graph, coloring, pair)
        sin_prod = float(np.prod([np.sin(pair.thetas[e]) for e in eids]))
        pairs.append((pair.thetas, (1j ** n_exc) * root_det_r[i], sqrt_lim * sin_prod))
    rows = []
    for k, prefactor in zip(ks, prefactors):
        second = 0.0
        for thetas, amp, den in pairs:
            phase = sum((k * coloring[e] + 1) * thetas[e] for e in eids)
            second += (amp * np.exp(1j * phase) / den).real
        rows.append({
            "k": k,
            "value": prefactor * (first + second),
            "terms": {"prefactor": prefactor, "first_sum": first, "second_sum": second},
            "convention_dependent": bool(pairs) and any((k * coloring[e]) % 2 for e in eids),
        })
    return rows
