"""Monte-Carlo integration over SU(2)^V with Haar sampling.

Samples are unit quaternions (exactly Haar via normalized 4-d Gaussians,
counter-based Philox streams).  Estimates are deterministic for a fixed
(seed, samples, workers): worker i consumes its own spawned substream and
partial sums are reduced in worker order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, PreconditionError
from .evaluator import theta_value
from .graphs import Graph, Holonomy

__all__ = [
    "MCEstimate",
    "haar_su2",
    "char_value",
    "su2_matrix",
    "mc_bracket",
    "mc_W_point",
    "mc_orthogonality",
]

_BATCH = 1 << 15
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def z_score(self, target: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == target else float("inf")
        return (self.mean - target) / self.stderr

    def to_obj(self, target=None):
        out = {"mean": self.mean, "stderr": self.stderr,
               "samples": self.samples, "seed": self.seed}
        if target is not None:
            out["target"] = float(target)
            out["z_score"] = self.z_score(float(target))
        return out


def haar_su2(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-distributed unit quaternions, shape (n, 4)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q


def char_value(n: int, q):
    """Character of the (n+1)-dimensional irreducible on the rotation by
    angle theta: sin((n+1) theta) / sin(theta), with the limit at 0, pi."""
    if n < 0:
        raise DomainError("character label must be >= 0")
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., 0], -1.0, 1.0)
    theta = np.arccos(w)
    s = np.sin(theta)
    big = np.abs(s) > 1e-8
    ratio = np.divide(np.sin((n + 1) * theta), s, out=np.zeros_like(s), where=big)
    out = np.where(big, ratio, (n + 1) * np.sign(np.cos(theta)) ** n)
    return out if out.shape else float(out)


def _chebyshev_u(n: int, x: np.ndarray) -> np.ndarray:
    """U_n(x) by recurrence; x = half the matrix trace, possibly complex."""
    if n < 0:
        raise DomainError("character label must be >= 0")
    if n == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def su2_matrix(q: np.ndarray) -> np.ndarray:
    """Quaternion (..., 4) to SU(2) matrix (..., 2, 2)."""
    w, x, y, z = (q[..., i] for i in range(4))
    m = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = w - 1j * z
    m[..., 0, 1] = -1j * x - y
    m[..., 1, 0] = -1j * x + y
    m[..., 1, 1] = w + 1j * z
    return m


def _check_samples(samples):
    if samples < MIN_SAMPLES:
        raise PreconditionError(f"samples must be >= {MIN_SAMPLES}")


def _chunks(samples: int, workers: int):
    if workers < 1:
        raise InputError("workers must be >= 1")
    base, rem = divmod(samples, workers)
    return [base + (1 if i < rem else 0) for i in range(workers)]


def _estimate(batch_fn, samples: int, seed: int, workers: int) -> MCEstimate:
    """Mean/stderr of a per-sample statistic; batch_fn(rng, n) -> (n,) floats."""
    total = 0.0
    total_sq = 0.0
    count = 0
    children = np.random.SeedSequence(seed).spawn(workers)
    for w, n_w in enumerate(_chunks(samples, workers)):
        rng = np.random.Generator(np.random.Philox(children[w]))
        done = 0
        while done < n_w:
            n = min(_BATCH, n_w - done)
            vals = batch_fn(rng, n)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
            done += n
        count += n_w
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / max(count - 1, 1)
    return MCEstimate(mean, (var / count) ** 0.5, count, seed)


def _prepared_holonomy(graph: Graph, holonomy):
    """Per-edge conjugators (A, B) = (psi at left half, psi at right half),
    or None for the trivial case."""
    if holonomy is None:
        return None
    if holonomy.exact and holonomy.is_trivial():
        return None
    hol = holonomy.to_float(graph)
    out = {}
    unitary = True
    for e, l, r in graph.edges:
        A = np.array(hol.matrix(l), dtype=complex)
        B = np.array(hol.matrix(r), dtype=complex)
        for m in (A, B):
            if np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-9:
                unitary = False
        out[e] = (A, B, np.linalg.inv(A), np.linalg.inv(B))
    if not unitary:
        raise InputError("Monte-Carlo integrands need a (numerically) unitary holonomy")
    return out


def _edge_half_traces(graph, coloring, conj, g):
    """Half the trace of the per-edge matrix psi_l g_v psi_l^-1 psi_r g_w^-1 psi_r^-1,
    for a batch of vertex samples g with shape (n, V, 4)."""
    vidx = {v: i for i, (v, _) in enumerate(graph.vertices)}
    if conj is None:
        # trace(g_v g_w^{-1}) = 2 <q_v, q_w>
        out = {}
        for e, l, r in graph.edges:
            qa = g[:, vidx[graph.vertex_of[l]], :]
            qb = g[:, vidx[graph.vertex_of[r]], :]
            out[e] = np.einsum("ij,ij->i", qa, qb)
        return out
    mats = su2_matrix(g)  # (n, V, 2, 2)
    out = {}
    for e, l, r in graph.edges:
        A, B, Ai, Bi = conj[e]
        gv = mats[:, vidx[graph.vertex_of[l]]]
        gw = mats[:, vidx[graph.vertex_of[r]]]
        gw_inv = np.conj(np.swapaxes(gw, -1, -2))
        m = A @ gv @ Ai @ B @ gw_inv @ Bi
        out[e] = 0.5 * np.real(m[..., 0, 0] + m[..., 1, 1])
    return out


def mc_bracket(graph: Graph, coloring: dict, holonomy: Holonomy | None = None,
               samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of the squared-evaluation bracket: Haar mean over vertex
    tuples of the product over edges of characters of the edge products."""
    _check_samples(samples)
    for e in graph.edge_ids:
        if e not in coloring:
            raise InputError(f"coloring misses edge {e!r}")
    conj = _prepared_holonomy(graph, holonomy)
    nv = len(graph.vertices)

    def batch(rng, n):
        g = haar_su2(rng, n * nv).reshape(n, nv, 4)
        half = _edge_half_traces(graph, coloring, conj, g)
        vals = np.ones(n)
        for e in graph.edge_ids:
            vals = vals * _chebyshev_u(coloring[e], half[e])
        return vals

    return _estimate(batch, samples, seed, workers)


def mc_W_point(graph: Graph, y: dict, holonomy: Holonomy | None = None,
               samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of the generating series of brackets at the point Y_e = y_e,
    |y_e| < 1: Haar mean of prod_e 1/det(1 - y_e M_e)."""
    _check_samples(samples)
    for e in graph.edge_ids:
        if e not in y:
            raise InputError(f"y misses edge {e!r}")
        if abs(y[e]) >= 1:
            raise DomainError(f"|y[{e!r}]| must be < 1")
    conj = _prepared_holonomy(graph, holonomy)
    nv = len(graph.vertices)

    def batch(rng, n):
        g = haar_su2(rng, n * nv).reshape(n, nv, 4)
        half = _edge_half_traces(graph, None, conj, g)
        vals = np.ones(n)
        for e in graph.edge_ids:
            ye = y[e]
            vals = vals / (1.0 - 2.0 * ye * half[e] + ye * ye)
        return vals

    return _estimate(batch, samples, seed, workers)


def mc_orthogonality(graph: Graph, coloring: dict,
                     samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of prod_v <v> / prod_e <e>: Haar mean over vertex, edge and
    half-edge samples of prod_v <v> prod_e <e> prod_h tr_c(g_e psi_h g_v psi_h^-1)."""
    _check_samples(samples)
    scale = 1.0
    for v, hs in graph.vertices:
        a, b, c = (coloring[graph.edge_of[h][0]] for h in hs)
        scale *= float(theta_value(a, b, c))
    for e in graph.edge_ids:
        scale *= coloring[e] + 1
    nv = len(graph.vertices)
    ne = len(graph.edges)
    nh = len(graph.halfedges)
    vidx = {v: i for i, (v, _) in enumerate(graph.vertices)}
    eidx = {e: i for i, e in enumerate(graph.edge_ids)}
    halfinfo = [(eidx[graph.edge_of[h][0]], vidx[graph.vertex_of[h]],
                 coloring[graph.edge_of[h][0]]) for h in graph.halfedges]

    def batch(rng, n):
        gv = su2_matrix(haar_su2(rng, n * nv).reshape(n, nv, 4))
        ge = su2_matrix(haar_su2(rng, n * ne).reshape(n, ne, 4))
        psi = su2_matrix(haar_su2(rng, n * nh).reshape(n, nh, 4))
        vals = np.full(n, scale)
        for k, (ei, vi, c) in enumerate(halfinfo):
            p = psi[:, k]
            p_inv = np.conj(np.swapaxes(p, -1, -2))
            m = ge[:, ei] @ p @ gv[:, vi] @ p_inv
            half = 0.5 * np.real(m[..., 0, 0] + m[..., 1, 1])
            vals = vals * _chebyshev_u(c, half)
        return vals

    return _estimate(batch, samples, seed, workers)
