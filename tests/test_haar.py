import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (bracket_integrand_stack, chebyshev_u_recurrence, edge_half_traces_stack,
                     orthogonality_integrand_stack, qmul_stack, w_integrand_stack)

import spinnets.haar as haar
from spinnets.errors import DomainError, InputError, NumericalError, PreconditionError
from spinnets.evaluator import bracket_square, theta_value
from spinnets.haar import (MCEstimate, char_value, haar_su2, mc_bracket, mc_orthogonality,
                           mc_W_point, su2_matrix, _BLOCK, _chebyshev_u,
                           _chunks, _edge_half_traces, _prepared_holonomy, _qmul)

SAMPLES = 100_000


def test_char_identity():
    e = np.array([1.0, 0.0, 0.0, 0.0])
    for n in (0, 1, 5, 12):
        assert char_value(n, e) == pytest.approx(n + 1)


def test_char_quarter_turn():
    # theta = pi/2: sin(3 theta)/sin(theta) = -1; matches the 3x3 matrix trace
    q = np.array([0.0, 1.0, 0.0, 0.0])
    assert char_value(2, q) == pytest.approx(-1.0)
    u = su2_matrix(q)
    half = 0.5 * np.real(np.trace(u))
    assert _chebyshev_u(2, np.array(half)) == pytest.approx(-1.0)


def test_negative_label_rejected(theta):
    q = np.array([0.6, 0.8, 0.0, 0.0])
    with pytest.raises(DomainError):
        char_value(-2, q)
    with pytest.raises(DomainError):
        _chebyshev_u(-2, np.array([0.6]))
    with pytest.raises(DomainError):
        mc_bracket(theta, {"e1": -2, "e2": 2, "e3": 2}, samples=10_000, seed=1)


def test_char_geometric_series():
    # partial sums of tr_n(g) y^n approach 1/det(1 - y g)
    rng = np.random.default_rng(0)
    q = haar_su2(rng, 1)[0]
    y = 0.4
    target = 1.0 / (1.0 - 2.0 * y * q[0] + y * y)
    partial = sum(char_value(n, q) * y ** n for n in range(60))
    assert partial == pytest.approx(target, rel=1e-8)


def test_su2_matrix_properties():
    rng = np.random.default_rng(1)
    q = haar_su2(rng, 50)
    m = su2_matrix(q)
    dets = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.allclose(dets, 1.0)
    prods = np.einsum("nij,nkj->nik", m, m.conj())
    assert np.allclose(prods, np.eye(2))


def test_haar_character_orthonormality():
    rng = np.random.default_rng(2)
    q = haar_su2(rng, 400_000)
    t1 = char_value(1, q)
    # E[tr_1] = 0 and E[tr_1^2] = 1 within 3 SE
    se0 = t1.std(ddof=1) / len(t1) ** 0.5
    assert abs(t1.mean()) < 3 * se0
    sq = t1 * t1
    se1 = sq.std(ddof=1) / len(sq) ** 0.5
    assert abs(sq.mean() - 1.0) < 3 * se1


def test_prodtrace_identity():
    # E_g[tr_c(Ag) tr_c(Bg)] = tr_c(A B^-1)/(c+1) for fixed A, B
    rng = np.random.default_rng(3)
    A = su2_matrix(haar_su2(rng, 1)[0])
    B = su2_matrix(haar_su2(rng, 1)[0])
    g = su2_matrix(haar_su2(rng, SAMPLES))
    AB = A @ B.conj().T
    half_ab = 0.5 * np.real(np.trace(AB))
    for c in (1, 2, 3):
        ta = _chebyshev_u(c, 0.5 * np.real(np.einsum("ij,nji->n", A, g)))
        tb = _chebyshev_u(c, 0.5 * np.real(np.einsum("ij,nji->n", B, g)))
        vals = ta * tb
        se = vals.std(ddof=1) / len(vals) ** 0.5
        target = _chebyshev_u(c, np.array(half_ab)) / (c + 1)
        assert abs(vals.mean() - target) < 3 * se


def test_coherent_state_identity():
    # (n+1) E_{v in S^3}[<v, g v>^n] = tr_n(g), complex mean
    rng = np.random.default_rng(4)
    g = su2_matrix(haar_su2(rng, 1)[0])
    q = haar_su2(rng, SAMPLES)
    v = np.stack([q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]], axis=1)
    inner = np.einsum("ni,ij,nj->n", v.conj(), g, v)
    for n in (1, 2, 3):
        z = (n + 1) * inner ** n
        # n = 1: the real part is constant (g + g† = tr(g) id); guard the SE
        se = max(z.real.std(ddof=1), z.imag.std(ddof=1), 1e-6) / len(z) ** 0.5
        target = char_value(n, np.array([0.5 * np.real(np.trace(g)), 0, 0, 0]))
        assert abs(z.mean() - target) < 4 * se


def test_mc_bracket_theta(theta):
    est = mc_bracket(theta, {"e1": 2, "e2": 2, "e3": 2}, samples=SAMPLES, seed=11)
    assert abs(est.z_score(1.0)) < 3
    est0 = mc_bracket(theta, {"e1": 1, "e2": 1, "e3": 1}, samples=SAMPLES, seed=11)
    assert abs(est0.z_score(0.0)) < 3


def test_mc_bracket_with_unitary_holonomy(theta):
    # Monte-Carlo with a unitary holonomy matches the exact bracket
    from conftest import random_unitary_holonomy

    hol = random_unitary_holonomy(theta, seed=6)
    col = {"e1": 2, "e2": 2, "e3": 2}
    target = float(bracket_square(theta, col, hol))
    assert 0 < target < 1  # a nontrivial holonomy shrinks the bracket
    est = mc_bracket(theta, col, hol, samples=SAMPLES, seed=12)
    assert abs(est.z_score(target)) < 3


def test_mc_bracket_rejects_nonunitary(theta):
    from spinnets.graphs import Holonomy
    m = ((2.0, 0.0), (0.0, 0.5))
    hol = Holonomy(theta, {h: m for h in theta.halfedges})
    with pytest.raises(InputError):
        mc_bracket(theta, {"e1": 2, "e2": 2, "e3": 2}, hol, samples=10_000, seed=0)


def test_mc_bracket_tet(tet):
    col = {e: 2 for e in tet.edge_ids}
    est = mc_bracket(tet, col, samples=SAMPLES, seed=13)
    assert abs(est.z_score(float(bracket_square(tet, col)))) < 3


def test_mc_w_point(theta):
    y = {"e1": 0.3, "e2": 0.2, "e3": 0.1}
    target = 1.0 / ((1 - 0.06) * (1 - 0.02) * (1 - 0.03))
    est = mc_W_point(theta, y, samples=SAMPLES, seed=14)
    assert abs(est.z_score(target)) < 3


def test_mc_w_point_domain(theta):
    with pytest.raises(DomainError):
        mc_W_point(theta, {"e1": 1.0, "e2": 0.0, "e3": 0.0}, samples=10_000, seed=0)


def test_mc_orthogonality(theta):
    est = mc_orthogonality(theta, {"e1": 2, "e2": 2, "e3": 2}, samples=SAMPLES, seed=15)
    assert abs(est.z_score(1.0 / 3.0)) < 3
    est0 = mc_orthogonality(theta, {"e1": 0, "e2": 0, "e3": 0}, samples=10_000, seed=15)
    assert abs(est0.z_score(1.0)) < 3


def test_mc_orthogonality_missing_edge(theta):
    with pytest.raises(InputError, match="coloring misses edge 'e3'"):
        mc_orthogonality(theta, {"e1": 2, "e2": 2}, samples=10_000)


_TH = {"e1": 2, "e2": 2, "e3": 2}
_Y = {"e1": 0.1, "e2": 0.1, "e3": 0.1}


@pytest.mark.parametrize("call,match", [
    # True was read as 1, an unknown edge was ignored, 2.0 was a TypeError
    (lambda g: mc_bracket(g, {**_TH, "e1": True}), "color of 'e1' must be"),
    (lambda g: mc_bracket(g, {**_TH, "e9": 2}), "names unknown edge 'e9'"),
    (lambda g: mc_bracket(g, {**_TH, "e1": 2.0}), "color of 'e1' must be"),
    (lambda g: mc_orthogonality(g, {**_TH, "e1": 2.0}), "color of 'e1' must be"),
    (lambda g: mc_orthogonality(g, {**_TH, "e9": 2}), "names unknown edge 'e9'"),
    # an unknown edge was ignored, nan gave mean nan, "0.1" was a TypeError
    (lambda g: mc_W_point(g, {**_Y, "e9": 0.1}), "y names unknown edge 'e9'"),
    (lambda g: mc_W_point(g, {"e1": 0.1, "e2": 0.1}), "y misses edge 'e3'"),
    (lambda g: mc_W_point(g, {**_Y, "e1": math.nan}), r"y\['e1'\] must be a finite"),
    (lambda g: mc_W_point(g, {**_Y, "e1": -math.inf}), r"y\['e1'\] must be a finite"),
    (lambda g: mc_W_point(g, {**_Y, "e1": "0.1"}), r"y\['e1'\] must be a finite"),
    (lambda g: mc_W_point(g, {**_Y, "e1": False}), r"y\['e1'\] must be a finite"),
    (lambda g: mc_W_point(g, [0.1, 0.1, 0.1]), "y must be a dict"),
], ids=["bracket-bool", "bracket-unknown", "bracket-float", "orth-float", "orth-unknown",
        "W-unknown", "W-missing", "W-nan", "W-inf", "W-str", "W-bool", "W-list"])
def test_mc_inputs_are_checked(theta, call, match, monkeypatch):
    def sample(*args):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(haar, "_estimate", sample)
    with pytest.raises(InputError, match=match):
        call(theta)


def test_mc_orthogonality_weight_underflow(theta):
    # prod_v <v> prod_e (c_e + 1) is about 4e-357 here: 0.0 as a float
    with pytest.raises(DomainError, match="weight"):
        mc_orthogonality(theta, {"e1": 1000, "e2": 1000, "e3": 1000}, samples=10_000)


def test_mc_orthogonality_squared_sample_underflow(theta):
    # at colors 600 the samples are about 1e-210, so their squares sum to 0.0
    # and the standard error read 0.0 with an infinite z-score
    with pytest.raises(NumericalError, match="underflow"):
        mc_orthogonality(theta, dict.fromkeys(("e1", "e2", "e3"), 600), samples=10_000)
    # colors 400: the squares (about 1e-270) stay normal floats
    est = mc_orthogonality(theta, dict.fromkeys(("e1", "e2", "e3"), 400), samples=10_000)
    assert 0.0 < est.stderr < math.inf
    # a constant integrand has squares summing to n and a zero stderr
    est = mc_orthogonality(theta, dict.fromkeys(("e1", "e2", "e3"), 0), samples=10_000)
    assert (est.mean, est.stderr) == (1.0, 0.0)


def test_min_samples_enforced(theta):
    with pytest.raises(PreconditionError):
        mc_bracket(theta, {"e1": 2, "e2": 2, "e3": 2}, samples=100, seed=0)


def test_determinism_and_worker_chunks(theta):
    col = {"e1": 2, "e2": 2, "e3": 2}
    a = mc_bracket(theta, col, samples=20_000, seed=42, workers=3)
    b = mc_bracket(theta, col, samples=20_000, seed=42, workers=3)
    assert a == b
    c = mc_bracket(theta, col, samples=20_000, seed=43, workers=3)
    assert a != c
    assert _chunks(10, 3) == [4, 3, 3]
    assert _chunks(10, 10) == [1] * 10
    for workers in (0, 11):
        with pytest.raises(InputError):
            _chunks(10, workers)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                    2 * _BLOCK, 2 * _BLOCK + 1]),
                   st.integers(0, 3 * _BLOCK + 1)))
def test_haar_su2_is_the_normalised_gaussian(seed, n):
    # the blocked in-place normalisation equals q / |q| with numpy's row norm
    q = np.random.default_rng(seed).standard_normal((n, 4))
    ref = q / np.linalg.norm(q, axis=1, keepdims=True)
    assert np.array_equal(haar_su2(np.random.default_rng(seed), n), ref)


def _serial_estimate(integrand, draws, samples, seed, workers):
    """The one-thread estimator: worker after worker, batch after batch,
    each batch of n samples drawn by successive haar_su2 calls of n * d
    quaternions for each d in draws and evaluated whole."""
    total = total_sq = 0.0
    for child, n_w in zip(np.random.SeedSequence(seed).spawn(workers),
                          _chunks(samples, workers)):
        rng = np.random.Generator(np.random.Philox(child))
        done = 0
        while done < n_w:
            n = min(haar._BATCH, n_w - done)
            vals = integrand(*(haar_su2(rng, n * d).reshape(n, d, 4) for d in draws))
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
            done += n
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / max(samples - 1, 1)
    return MCEstimate(mean, (var / samples) ** 0.5, samples, seed)


def _call_within(fn, seconds=120):
    """fn() on a thread joined with a timeout, so that a hung hand-off
    between a drawer and its consumer fails the test instead of blocking it."""
    out = []

    def target():
        try:
            out.append((True, fn()))
        except BaseException as exc:
            out.append((False, exc))

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), "the estimator did not return"
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _estimate_cases(theta, tet, monkeypatch, samples):
    """(run(workers), draws) per integrand, with the integrands that
    haar._estimate receives appended to the returned list."""
    from conftest import random_unitary_holonomy

    integrands = []
    real_estimate = haar._estimate

    def recorded(integrand, draws, samples, seed, workers):
        integrands.append((integrand, draws))
        return real_estimate(integrand, draws, samples, seed, workers)

    monkeypatch.setattr(haar, "_estimate", recorded)
    col = {"e1": 2, "e2": 3, "e3": 3}
    hol = random_unitary_holonomy(theta, seed=6)
    nv, ne, nh = len(theta.vertices), len(theta.edges), len(theta.halfedges)
    cases = [
        (lambda w: mc_bracket(tet, {e: 2 for e in tet.edge_ids}, samples=samples, seed=31,
                              workers=w), (len(tet.vertices),)),
        (lambda w: mc_bracket(theta, col, hol, samples=samples, seed=32, workers=w), (nv,)),
        (lambda w: mc_W_point(theta, {"e1": 0.3, "e2": 0.2, "e3": 0.1}, samples=samples,
                              seed=33, workers=w), (nv,)),
        # one draw of V + E + H quaternions per sample is three successive draws
        (lambda w: mc_orthogonality(theta, col, samples=samples, seed=34, workers=w),
         (nv, ne, nh)),
    ]
    return cases, integrands


def test_threaded_estimates_equal_serial_loop(theta, tet, monkeypatch):
    # 70 000 samples give full and partial batches and blocks (32 768 and
    # 4 464 samples for one worker, 23 334 for three), and so unequal
    # consecutive batches.  The CPU counts give T = min(workers, CPUs) runs,
    # the first on the calling thread, each with a drawer thread.
    def not_on_pool_threads(rng, n):
        raise AssertionError("the estimator calls the traced name haar.haar_su2")

    monkeypatch.setattr(haar, "haar_su2", not_on_pool_threads)
    cases, integrands = _estimate_cases(theta, tet, monkeypatch, 70_000)
    refs = {}
    for cpus in (1, 2, 4, 6):
        monkeypatch.setattr(haar.os, "cpu_count", lambda: cpus)
        for case, (run, draws) in enumerate(cases):
            for workers in (1, 2, 3):
                est = run(workers)
                integrand, seen = integrands[-1]
                assert seen == draws
                if (case, workers) not in refs:
                    refs[case, workers] = _serial_estimate(integrand, draws, 70_000,
                                                           est.seed, workers)
                assert est == refs[case, workers], (cpus, workers, draws)


def test_drawer_hand_off_under_thread_switching(theta, tet, monkeypatch):
    # batches of 2000 samples in blocks of 250 give each run 61 hand-offs and
    # a last batch of 1031 samples; a drawer that overwrote rows before their
    # block was consumed would change the sums
    monkeypatch.setattr(haar, "_BATCH", 2000)
    monkeypatch.setattr(haar, "_BLOCK", 250)
    monkeypatch.setattr(haar.os, "cpu_count", lambda: 8)  # 4 runs, 4 drawers
    cases, integrands = _estimate_cases(theta, tet, monkeypatch, 60_123)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ests = [_call_within(lambda: run(4)) for run, _ in cases]
    finally:
        sys.setswitchinterval(interval)
    for est, (integrand, draws) in zip(ests, integrands):
        assert est == _serial_estimate(integrand, draws, 60_123, est.seed, 4)


def test_pool_thread_errors_reach_the_caller(theta, monkeypatch):
    # two CPUs: one worker runs on the calling thread, two and three workers
    # add a pool thread, and every run has a drawer thread
    monkeypatch.setattr(haar.os, "cpu_count", lambda: 2)
    col = {"e1": 2, "e2": 2, "e3": 2}
    before = threading.active_count()
    for workers in (1, 2, 3):
        est = _call_within(lambda: mc_bracket(theta, col, samples=70_000, seed=0,
                                              workers=workers))
        assert est.samples == 70_000
        assert threading.active_count() == before

    # the calling thread fails on its first block while the pool run waits,
    # in its first block, until that error is on its way
    real_chebyshev = haar._chebyshev_u
    caller, raised = [], threading.Event()

    def failing_on_caller(n, x):
        if threading.current_thread() is caller[0]:
            raised.set()
            raise ValueError("integrand failed on the calling thread")
        assert raised.wait(60)
        return real_chebyshev(n, x)

    def call():
        caller.append(threading.current_thread())
        return mc_bracket(theta, col, samples=70_000, seed=0, workers=2)

    with monkeypatch.context() as m:
        m.setattr(haar, "_chebyshev_u", failing_on_caller)
        with pytest.raises(ValueError, match="on the calling thread"):
            _call_within(call)
    assert threading.active_count() == before

    def failing(n, x):
        raise ValueError("integrand failed")

    # the consumer fails on its first block while the drawer waits to draw
    # the second batch into the rows of that block
    with monkeypatch.context() as m:
        m.setattr(haar, "_chebyshev_u", failing)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="integrand failed"):
                _call_within(lambda: mc_bracket(theta, col, samples=70_000, seed=0,
                                                workers=workers))
            assert threading.active_count() == before

    real_generator = np.random.Generator

    class FailingGenerator:
        """Draws like numpy's Generator, and raises on its third fill."""

        def __init__(self, bit_generator):
            self._rng = real_generator(bit_generator)
            self._fills = 0

        def standard_normal(self, *, out):
            self._fills += 1
            if self._fills == 3:
                raise RuntimeError("draw failed")
            return self._rng.standard_normal(out=out)

    monkeypatch.setattr(haar.np.random, "Generator", FailingGenerator)
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match="draw failed"):
            _call_within(lambda: mc_bracket(theta, col, samples=70_000, seed=0,
                                            workers=workers))
        assert threading.active_count() == before


def test_su2_sample_type():
    # group elements are unit quaternions: angle 0, pi/2, pi/2 and pi
    q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
    assert char_value(2, q[1]) == pytest.approx(-1.0)
    assert np.allclose(char_value(2, q), [3.0, -1.0, -1.0, 3.0])
    m = su2_matrix(q)
    assert m.shape == (4, 2, 2)
    assert np.allclose(m @ m.conj().transpose(0, 2, 1), np.eye(2))
    assert np.allclose(m[0], np.eye(2)) and np.allclose(m[3], -np.eye(2))


def _half_trace(m):
    return 0.5 * np.real(m[..., 0, 0] + m[..., 1, 1])


def test_qmul_is_the_matrix_product():
    rng = np.random.default_rng(21)
    a, b = haar_su2(rng, 1000), haar_su2(rng, 1000)
    err = np.abs(su2_matrix(_qmul(a, b)) - su2_matrix(a) @ su2_matrix(b))
    assert np.max(err) < 1e-15
    # broadcast: one quaternion against a batch
    assert np.allclose(su2_matrix(_qmul(a[0], b)), su2_matrix(a[0]) @ su2_matrix(b))


@pytest.mark.parametrize("seed", [0, 9, 31])
def test_prepared_holonomy_reads_exact_cells_as_their_floats(tet, seed):
    # an exact unitary holonomy and the same one written as floats give the
    # same edge quaternions, bit for bit
    from conftest import random_unitary_holonomy
    from spinnets.graphs import Holonomy

    hol = random_unitary_holonomy(tet, seed=seed)
    floats = Holonomy(tet, {h: [[complex(x) for x in row] for row in m]
                            for h, m in hol.entries.items()})
    assert hol.exact and not floats.exact
    exact_q, float_q = _prepared_holonomy(tet, hol), _prepared_holonomy(tet, floats)
    assert exact_q.keys() == float_q.keys() == set(tet.edge_ids)
    for e in tet.edge_ids:
        assert exact_q[e].tobytes() == float_q[e].tobytes(), e


def test_prepared_holonomy_refuses_a_cell_beyond_floating_point(theta):
    # an exact det-1 holonomy whose cell converts to no float was an
    # OverflowError
    from spinnets.graphs import Holonomy

    big = 10 ** 400
    hol = Holonomy(theta, {h: ((big, 0), (0, f"1/{big}")) for h in theta.halfedges})
    with pytest.raises(InputError, match="unitary"):
        _prepared_holonomy(theta, hol)


def test_edge_half_traces_match_matrix_formula(tet):
    from conftest import random_unitary_holonomy

    hol = random_unitary_holonomy(tet, seed=9)
    nv = len(tet.vertices)
    g = haar_su2(np.random.default_rng(22), 500 * nv).reshape(500, nv, 4)
    half = _edge_half_traces(tet, _prepared_holonomy(tet, hol), g)
    # oracle: 0.5 Re tr(A g_v A^-1 B g_w^-1 B^-1), A and B the holonomy
    # matrices at the left and the right half-edge
    mats = su2_matrix(g)
    vidx = {v: i for i, (v, _) in enumerate(tet.vertices)}
    for e, l, r in tet.edges:
        A, B = (np.array(hol.entries[h], dtype=complex) for h in (l, r))
        gv = mats[:, vidx[tet.vertex_of[l]]]
        gw_inv = np.conj(np.swapaxes(mats[:, vidx[tet.vertex_of[r]]], -1, -2))
        m = A @ gv @ np.linalg.inv(A) @ B @ gw_inv @ np.linalg.inv(B)
        assert np.max(np.abs(half[e] - _half_trace(m))) < 1e-14, e


def test_orthogonality_integrand_matches_matrix_form(theta):
    # redraw the estimator's one-worker stream and evaluate the integrand
    # prod_v <v> prod_e (c_e + 1) prod_h tr_c(g_e psi_h g_v psi_h^-1) on matrices
    col = {"e1": 2, "e2": 3, "e3": 3}
    n, seed = 10_000, 5
    est = mc_orthogonality(theta, col, samples=n, seed=seed)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.Philox(child))
    nv, ne, nh = len(theta.vertices), len(theta.edges), len(theta.halfedges)
    gv = su2_matrix(haar_su2(rng, n * nv).reshape(n, nv, 4))
    ge = su2_matrix(haar_su2(rng, n * ne).reshape(n, ne, 4))
    psi = su2_matrix(haar_su2(rng, n * nh).reshape(n, nh, 4))
    vidx = {v: i for i, (v, _) in enumerate(theta.vertices)}
    eidx = {e: i for i, e in enumerate(theta.edge_ids)}
    scale = 1.0
    for v, hs in theta.vertices:
        scale *= float(theta_value(*(col[theta.edge_of[h][0]] for h in hs)))
    vals = np.full(n, scale * np.prod([c + 1 for c in col.values()]))
    for k, h in enumerate(theta.halfedges):
        e = theta.edge_of[h][0]
        p = psi[:, k]
        m = ge[:, eidx[e]] @ p @ gv[:, vidx[theta.vertex_of[h]]] @ np.conj(
            np.swapaxes(p, -1, -2))
        vals = vals * _chebyshev_u(col[e], _half_trace(m))
    assert est.mean == pytest.approx(vals.mean(), rel=1e-12, abs=1e-12)
    assert est.stderr == pytest.approx(vals.std(ddof=1) / n ** 0.5, rel=1e-9)


@pytest.mark.parametrize("kind", ["real", "complex", "0-d"])
def test_chebyshev_u_matches_the_recurrence(kind):
    # 2.0 * x formed once is the factor the old recurrence formed at each step
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.5, 1.5, 1000)
    if kind == "complex":
        x = x + 1j * rng.uniform(-1.5, 1.5, 1000)
    elif kind == "0-d":
        x = np.array(0.37)
    for n in range(12):
        got, want = _chebyshev_u(n, x), chebyshev_u_recurrence(n, x)
        assert type(got) is type(want) and got.dtype == want.dtype, n
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), n


def _components(bound):
    """Finite floats within bound, signed zeros and subnormals among them."""
    return st.one_of(st.floats(-bound, bound), st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0 + 2.0 ** -52]))


def _quaternions(draw, shape, bound=1e3):
    return draw(arrays(float, (*shape, 4), elements=_components(bound)))


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(0, 9),
       form=st.sampled_from(("rows", "one-left", "one-right", "single", "strided")))
def test_qmul_is_the_stacked_product_bit_for_bit(data, m, form):
    if form == "single":
        p, q = _quaternions(data.draw, ()), _quaternions(data.draw, ())
    elif form == "strided":  # views into (m, 3, 4) sections, as the integrands read them
        p, q = _quaternions(data.draw, (m, 3))[:, 1], _quaternions(data.draw, (m, 2))[:, 0]
    else:
        p = _quaternions(data.draw, () if form == "one-left" else (m,))
        q = _quaternions(data.draw, () if form == "one-right" else (m,))
    assert _same_bits(_qmul(p, q), qmul_stack(p, q))


def _draw_sections(draw, m, draws, bound=1e3):
    """Sections (m, d, 4) read from one buffer, as the estimator passes them."""
    buf = _quaternions(draw, (m * sum(draws),), bound)
    out, lo = [], 0
    for d in draws:
        out.append(buf[m * lo:m * (lo + d)].reshape(m, d, 4))
        lo += d
    return out


def _integrand_of(call):
    """The integrand and draws that call() hands to haar._estimate."""
    with mock.patch.object(haar, "_estimate", lambda integrand, draws, *rest: (integrand, draws)):
        return call()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(("theta", "tet")), m=st.integers(1, 6))
def test_edge_half_traces_match_the_stacked_kernel(theta, tet, data, name, m):
    # non-unit vertex samples and non-unit edge quaternions c_e; the
    # holonomy branch and the trivial one
    graph = {"theta": theta, "tet": tet}[name]
    g, = _draw_sections(data.draw, m, (len(graph.vertices),))
    conj = dict(zip(graph.edge_ids, _quaternions(data.draw, (len(graph.edges),))))
    for c in (conj, None):
        got, want = _edge_half_traces(graph, c, g), edge_half_traces_stack(graph, c, g)
        assert got.keys() == want.keys()
        for e in want:
            assert _same_bits(got[e], want[e]), e


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(("theta", "tet")), m=st.integers(1, 6),
       colors=st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_integrands_match_the_stacked_oracles(theta, tet, data, name, m, colors):
    # each estimator's integrand on non-unit samples, against the old
    # integrand on the same arrays; the holonomy enters as its unit c_e.
    # Components within 3 keep every product of characters finite.
    from conftest import random_unitary_holonomy
    from spinnets.graphs import is_admissible

    graph = {"theta": theta, "tet": tet}[name]
    col = dict(zip(graph.edge_ids, colors))
    hol = random_unitary_holonomy(graph, seed=m)
    conj = _prepared_holonomy(graph, hol)
    y = dict(zip(graph.edge_ids, (0.1, -0.2, 0.3, 0.25, -0.05, 0.15)))
    cases = [(lambda: mc_bracket(graph, col, hol), bracket_integrand_stack(graph, col, conj)),
             (lambda: mc_W_point(graph, y, hol), w_integrand_stack(graph, y, conj))]
    # an inadmissible coloring's weight prod_v <v> is 0, which is refused
    orth = col if is_admissible(graph, col) else dict.fromkeys(col, 2)
    cases.append((lambda: mc_orthogonality(graph, orth),
                  orthogonality_integrand_stack(graph, orth)))
    for call, oracle in cases:
        integrand, draws = _integrand_of(call)
        sections = _draw_sections(data.draw, m, draws, bound=3.0)
        assert _same_bits(integrand(*sections), oracle(*sections)), draws


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimates_equal_the_stacked_integrands(theta, tet, workers):
    # each estimator equals _estimate run on the old integrand, ==, with
    # and without a unitary holonomy; 40 000 samples give a full and a
    # partial batch for one worker
    from conftest import random_unitary_holonomy

    n = 40_000
    col = {"e1": 2, "e2": 3, "e3": 3}
    tet_col = {e: 2 for e in tet.edge_ids}
    y = {"e1": 0.3, "e2": 0.2, "e3": 0.1}
    hol = random_unitary_holonomy(theta, seed=6)
    conj = _prepared_holonomy(theta, hol)
    nv = (len(theta.vertices),)
    cases = [
        (mc_bracket(tet, tet_col, samples=n, seed=41, workers=workers),
         bracket_integrand_stack(tet, tet_col, None), (len(tet.vertices),)),
        (mc_bracket(theta, col, hol, samples=n, seed=42, workers=workers),
         bracket_integrand_stack(theta, col, conj), nv),
        (mc_W_point(theta, y, samples=n, seed=43, workers=workers),
         w_integrand_stack(theta, y, None), nv),
        (mc_W_point(theta, y, hol, samples=n, seed=44, workers=workers),
         w_integrand_stack(theta, y, conj), nv),
        (mc_orthogonality(theta, col, samples=n, seed=45, workers=workers),
         orthogonality_integrand_stack(theta, col),
         (len(theta.vertices), len(theta.edges), len(theta.halfedges))),
    ]
    for est, oracle, draws in cases:
        assert est == haar._estimate(oracle, draws, n, est.seed, workers), draws
