"""Monte-Carlo integration over SU(2)^V with Haar sampling.

Samples are unit quaternions (exactly Haar via normalized 4-d Gaussians,
counter-based Philox streams), and every SU(2) product of an integrand is a
Hamilton product of quaternion arrays: half the trace of a product is its
scalar part, so <p, q> is half the trace of p q^-1.  `su2_matrix` carries a
quaternion to its matrix for callers that need one.

Samples arrive as (m, d, 4) sections, a quaternion's components side by
side.  The conjugations of the integrands (psi g_v psi^-1 in the
orthogonality integrand, c_e g_w c_e^-1 under a holonomy) copy their
factors' components into contiguous rows, run `_hamilton`, the one
Hamilton-product formula, on those rows, and copy the result into one
(m, 4) buffer per block, which the einsum reads.  Every per-sample value
keeps the bits of the stacked (..., 4) form: each component is formed by
the same IEEE operations, associated left to right as the expanded formula
reads; an inverse enters as exact sign flips of its vector part, here or
on the other factor of a product; every einsum and summation is unchanged.
Without a holonomy, W and the bracket read the sections' strided views.

Estimates are deterministic for a fixed (seed, samples, workers): worker i
consumes its own spawned substream and partial sums are reduced in worker
order.  The workers run on T = min(workers, CPUs) threads, each with one
sample buffer its caller allocates; the calling thread runs the first of
them.  Each also gets a drawer thread that only fills the buffer from the
stream, block by block, while its own thread normalises the drawn blocks
and evaluates the integrand.  Successive fills of a generator draw what one
fill would, and which thread runs a worker never changes what the worker
draws or the order of the sums, so no estimate depends on the CPU count.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericalError, PreconditionError
from .evaluator import theta_value
from .graphs import Graph, Holonomy, check_coloring, check_edge_keys, vertex_colors

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
# quaternions per normalisation pass and samples per integrand call: small
# temporaries, which each thread's allocator reuses instead of retaining
_BLOCK = 8192
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
    return _normalise(rng.standard_normal((n, 4)))


def _normalise(out: np.ndarray) -> np.ndarray:
    """Divide each row of the C-contiguous (m, 4) array out by its norm in
    place and return out.  Row norms are summed in the order
    np.linalg.norm(axis=1) sums them, so a row q becomes q / norm(q) bit for
    bit."""
    for i in range(0, len(out), _BLOCK):
        blk = out[i:i + _BLOCK]
        t0, t1, t2, t3 = blk.T
        s = t0 * t0
        s += t1 * t1
        s += t2 * t2
        s += t3 * t3
        np.sqrt(s, out=s)
        blk /= s[:, None]
    return out


def char_value(n: int, q):
    """Character of the (n+1)-dimensional irreducible on the unit quaternion
    q = (cos theta, ...): U_n(cos theta) = sin((n+1) theta) / sin(theta),
    with its limits at 0 and pi."""
    out = _chebyshev_u(n, np.clip(np.asarray(q, dtype=float)[..., 0], -1.0, 1.0))
    return out if out.shape else float(out)


def _chebyshev_u(n: int, x: np.ndarray) -> np.ndarray:
    """U_n(x) by recurrence; x = half the matrix trace, possibly complex."""
    if n < 0:
        raise DomainError("character label must be >= 0")
    if n == 0:
        return np.ones_like(x)
    two_x = 2.0 * x
    prev, cur = np.ones_like(x), two_x
    for _ in range(n - 1):
        nxt = two_x * cur
        nxt -= prev
        prev, cur = cur, nxt
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


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])  # q * _CONJ is q^-1 for a unit q

# component k of the Hamilton product p q is the sum of s * p[i] * q[j] over
# row k's (i, j, s), added left to right: a*e - b*f - c*g - d*h for k = 0
_HAMILTON = (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
             ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
             ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
             ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)))


def _hamilton(p, q, out):
    """Write the Hamilton product p q into out.  p, q and out are sequences
    of four components (arrays or scalars that broadcast to out's); out
    overlaps neither p nor q."""
    tmp = np.empty(np.shape(out[0]))
    for o, ((i, j, _), *rest) in zip(out, _HAMILTON):
        np.multiply(p[i], q[j], out=o)
        for i, j, s in rest:
            np.multiply(p[i], q[j], out=tmp)
            (np.add if s > 0 else np.subtract)(o, tmp, out=o)


def _qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays (..., 4), broadcast; su2_matrix
    carries it to the matrix product."""
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    _hamilton(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0), [out[..., k] for k in range(4)])
    return out


def _check_samples(samples):
    if samples < MIN_SAMPLES:
        raise PreconditionError(f"samples must be >= {MIN_SAMPLES}")


def _chunks(samples: int, workers: int):
    if workers < 1:
        raise InputError("workers must be >= 1")
    if workers > samples:
        raise InputError(f"workers must be <= samples ({samples}), got {workers}")
    base, rem = divmod(samples, workers)
    return [base + (1 if i < rem else 0) for i in range(workers)]


def _block_rows(draws, n: int, start: int):
    """Row slices of the sample buffer that hold samples start..start+_BLOCK
    of an n-sample batch, one per section.  A batch of n samples fills
    n * sum(draws) rows, read as one (n, d, 4) section per d in draws."""
    stop = min(n, start + _BLOCK)
    out, lo = [], 0
    for d in draws:
        out.append(slice(n * lo + start * d, n * lo + stop * d))
        lo += d
    return out


def _sub_fills(batches, draws, buf):
    """A run's draws as successive fills of one generator, in stream order:
    batch by batch, section by section, block by block.  Yields (rng, rows,
    free, ready): the rows may be overwritten once the first `free` blocks
    of the run are consumed, and once they are filled the first `ready`
    blocks are drawn in every section."""
    off, prev_n = 0, None  # blocks of the earlier batches; the last batch size
    for rng, n in batches:
        rows = [_block_rows(draws, n, s) for s in range(0, n, _BLOCK)]
        for j in range(len(draws)):
            for i, block in enumerate(rows):
                # an equal batch size reuses the same rows: block i of the
                # previous batch must be done; otherwise all of that batch
                free = off - len(rows) + i + 1 if n == prev_n else off
                ready = off + i + 1 if j == len(draws) - 1 else off
                yield rng, buf[block[j]], free, ready
        off += len(rows)
        prev_n = n


class _Drawer:
    """Carries out a run's sub-fills in order on a thread of its own, which
    draws as far ahead as the consumer has released rows."""

    def __init__(self, fills):
        self._fills = fills
        self._ready = self._released = 0
        self._error = None
        self._stopped = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._draw_ahead, daemon=True)
        self._thread.start()

    def _draw_ahead(self):
        try:
            for rng, rows, free, ready in self._fills:
                with self._cond:
                    self._cond.wait_for(lambda: self._released >= free or self._stopped)
                    if self._stopped:
                        return
                rng.standard_normal(out=rows)  # drops the GIL while it fills
                with self._cond:
                    self._ready = ready
                    self._cond.notify()
        except BaseException as exc:  # re-raised by the consumer
            with self._cond:
                self._error = exc
                self._cond.notify()

    def wait(self, block: int):
        """Return once every section's rows of the run's block are drawn."""
        with self._cond:
            self._cond.wait_for(lambda: self._ready > block or self._error is not None)
            if self._ready <= block:
                raise self._error

    def release(self, blocks: int):
        """The run's first `blocks` blocks are consumed; redraw their rows."""
        with self._cond:
            self._released = blocks
            self._cond.notify()

    def close(self):
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join()


def _batch_sums(integrand, draws, buf, vals, streams, counts):
    """Per-batch (sum v, sum v^2) over the given workers' substreams, in
    worker order, then batch order.  A batch of n samples is n * sum(draws)
    quaternions drawn into buf; each 8192-sample block of its sections is
    normalised and passed to the integrand once drawn, and the values go to
    vals, while a drawer thread fills the next blocks."""
    batches = []
    for child, n_w in zip(streams, counts):
        rng = np.random.Generator(np.random.Philox(child))
        batches += [(rng, min(_BATCH, n_w - done)) for done in range(0, n_w, _BATCH)]
    drawer = _Drawer(_sub_fills(batches, draws, buf))
    sums, block = [], 0
    try:
        for _, n in batches:
            v = vals[:n]
            for start in range(0, n, _BLOCK):
                drawer.wait(block)
                sections = [_normalise(buf[rows]).reshape(-1, d, 4)
                            for rows, d in zip(_block_rows(draws, n, start), draws)]
                v[start:start + _BLOCK] = integrand(*sections)
                block += 1
                drawer.release(block)
            total = float(np.sum(v))
            v *= v
            sums.append((total, float(np.sum(v))))
    finally:
        drawer.close()
    return sums


def _estimate(integrand, draws, samples: int, seed: int, workers: int) -> MCEstimate:
    """Mean/stderr of a per-sample statistic: integrand(*sections) -> (m,)
    floats for m samples, section j of shape (m, draws[j], 4) holding Haar
    quaternions.

    Worker w draws chunk w of the samples from substream w of the seed.
    Run t of T = min(workers, CPUs) is a contiguous run of workers, in
    buffers allocated here and with a drawer thread of its own; the calling
    thread runs the first run and a pool thread each other one.  The sums
    are added in worker order, then batch order, whatever the thread count,
    and a run's error is raised, in run order, once every run has stopped."""
    chunks = _chunks(samples, workers)  # validates workers before spawning
    streams = np.random.SeedSequence(seed).spawn(workers)
    runs = _chunks(workers, min(workers, os.cpu_count() or 1))
    jobs, lo = [], 0
    for count in runs:
        rows = min(_BATCH, chunks[lo])
        jobs.append((np.empty((rows * sum(draws), 4)), np.empty(rows),
                     streams[lo:lo + count], chunks[lo:lo + count]))
        lo += count
    results = [None] * len(runs)

    def run(t, catch):
        try:
            results[t] = _batch_sums(integrand, draws, *jobs[t])
        except catch as exc:  # re-raised by the calling thread
            results[t] = exc

    threads = [threading.Thread(target=run, args=(t, BaseException), daemon=True)
               for t in range(1, len(runs))]
    for th in threads:
        th.start()
    run(0, Exception)  # Ctrl-C here raises at once
    for th in threads:
        th.join()
    total = total_sq = 0.0
    for sums in results:
        if isinstance(sums, BaseException):
            raise sums
        for s, s2 in sums:
            total += s
            total_sq += s2
    if total and total_sq < sys.float_info.min:
        raise NumericalError(f"the squared samples underflow (their sum is {total_sq}), "
                             "so the standard error is lost")
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / max(samples - 1, 1)
    return MCEstimate(mean, (var / samples) ** 0.5, samples, seed)


def _prepared_holonomy(graph: Graph, holonomy):
    """Per-edge unit quaternion c_e = psi_l^-1 psi_r (psi at the left and the
    right half-edge), or None for the trivial case.  Exact and floating
    holonomies are read alike: each cell as complex(cell)."""
    if holonomy is None or holonomy.is_trivial():
        return None

    def quaternion(h):
        # det 1 and unitary: m = su2_matrix(q) for q read off its first row
        try:
            m = np.array(holonomy.entries[h], dtype=complex)
        except OverflowError:  # an exact cell beyond floating point: nan, refused below
            m = np.full((2, 2), np.nan)
        q = np.array([m[0, 0].real, -m[0, 1].imag, -m[0, 1].real, -m[0, 0].imag])
        if not np.max(np.abs(su2_matrix(q) - m)) <= 1e-9:
            raise InputError("Monte-Carlo integrands need a (numerically) unitary holonomy")
        return q

    return {e: _qmul(quaternion(l) * _CONJ, quaternion(r)) for e, l, r in graph.edges}


def _edge_half_traces(graph, conj, g):
    """Half the trace of psi_l g_v psi_l^-1 psi_r g_w^-1 psi_r^-1 per edge, that
    is <g_v, c_e g_w c_e^-1>, for vertex samples g of shape (n, V, 4)."""
    vi = graph.vertex_index
    out = {}
    if conj is not None:
        # one buffer each: g_w's components as contiguous rows, overwritten
        # by c_e g_w c_e^-1's; c_e g_w; the (n, 4) stack the einsum reads
        q, t, rotated = np.empty((4, len(g))), np.empty((4, len(g))), np.empty((len(g), 4))
    for e, l, r in graph.edges:
        qv = g[:, vi[graph.vertex_of[l]], :]
        qw = g[:, vi[graph.vertex_of[r]], :]
        if conj is not None:
            np.copyto(q, qw.T)
            _hamilton(conj[e], q, t)
            _hamilton(t, conj[e] * _CONJ, q)
            np.copyto(rotated, q.T)
            qw = rotated
        out[e] = np.einsum("ij,ij->i", qv, qw)
    return out


def _check_labels(graph: Graph, coloring: dict):
    """check_coloring for a coloring by character labels, where a negative
    label raises DomainError, as its character does."""
    if isinstance(coloring, dict) and any(type(c) is int and c < 0 for c in coloring.values()):
        raise DomainError("character label must be >= 0")
    check_coloring(coloring, graph, "coloring")


def mc_bracket(graph: Graph, coloring: dict, holonomy: Holonomy | None = None,
               samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of the squared-evaluation bracket: Haar mean over vertex
    tuples of the product over edges of characters of the edge products."""
    _check_samples(samples)
    _check_labels(graph, coloring)
    conj = _prepared_holonomy(graph, holonomy)
    nv = len(graph.vertices)

    def integrand(g):
        half = _edge_half_traces(graph, conj, g)
        vals = np.ones(len(g))
        for e in graph.edge_ids:
            vals *= _chebyshev_u(coloring[e], half[e])
        return vals

    return _estimate(integrand, (nv,), samples, seed, workers)


def mc_W_point(graph: Graph, y: dict, holonomy: Holonomy | None = None,
               samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of the generating series of brackets at the point Y_e = y_e,
    |y_e| < 1: Haar mean of prod_e 1/det(1 - y_e M_e)."""
    _check_samples(samples)
    if not isinstance(y, dict):
        raise InputError("y must be a dict {edge: float}")
    check_edge_keys(y, graph, "y")
    for e in graph.edge_ids:
        ye = y[e]
        if not (isinstance(ye, (int, float)) and not isinstance(ye, bool) and math.isfinite(ye)):
            raise InputError(f"y[{e!r}] must be a finite int or float, got {ye!r}")
        if abs(ye) >= 1:
            raise DomainError(f"|y[{e!r}]| must be < 1")
    conj = _prepared_holonomy(graph, holonomy)
    nv = len(graph.vertices)

    def integrand(g):
        half = _edge_half_traces(graph, conj, g)
        vals = np.ones(len(g))
        for e in graph.edge_ids:
            ye = y[e]
            vals /= 1.0 - 2.0 * ye * half[e] + ye * ye
        return vals

    return _estimate(integrand, (nv,), samples, seed, workers)


def mc_orthogonality(graph: Graph, coloring: dict,
                     samples: int = 1_000_000, seed: int = 0, workers: int = 1) -> MCEstimate:
    """Estimate of prod_v <v> / prod_e <e>: Haar mean over vertex, edge and
    half-edge samples of prod_v <v> prod_e <e> prod_h tr_c(g_e psi_h g_v psi_h^-1)."""
    _check_samples(samples)
    _check_labels(graph, coloring)
    scale = 1.0
    for cols in vertex_colors(graph, coloring):
        scale *= float(theta_value(*cols))
    for e in graph.edge_ids:
        scale *= coloring[e] + 1
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError(f"the weight prod_v <v> prod_e (c_e + 1) is {scale} "
                          "in floating point at these colors")
    nv = len(graph.vertices)
    ne = len(graph.edges)
    nh = len(graph.halfedges)
    # per half-edge, in graph.halfedges order: its edge's index, its vertex's
    # index and its color
    halfinfo = [(graph.edge_index[e], vi, coloring[e])
                for vi, es in enumerate(graph.vertex_edges) for e in es]

    def integrand(gv, ge, psi):
        m = len(gv)
        vals = np.full(m, scale)
        # one buffer each per block: psi's components as contiguous rows;
        # g_v's, overwritten by psi g_v psi^-1's; psi g_v; the (m, 4) stack
        # the einsum reads
        p, q, t, rotated = np.empty((4, m)), np.empty((4, m)), np.empty((4, m)), np.empty((m, 4))
        for k, (ei, vi, c) in enumerate(halfinfo):
            np.copyto(p, psi[:, k].T)
            np.copyto(q, gv[:, vi].T)
            _hamilton(p, q, t)
            np.negative(p[1:], out=p[1:])  # psi^-1
            _hamilton(t, p, q)
            # half the trace of g_e psi g_v psi^-1 is <g_e^-1, psi g_v psi^-1>;
            # g_e^-1's sign flips move to the other factor, which leaves the
            # bits of each product the einsum sums
            np.negative(q[1:], out=q[1:])
            np.copyto(rotated, q.T)
            half = np.einsum("ij,ij->i", ge[:, ei], rotated)
            vals *= _chebyshev_u(c, half)
        return vals

    # a batch draws its vertex, then its edge, then its half-edge samples
    return _estimate(integrand, (nv, ne, nh), samples, seed, workers)
