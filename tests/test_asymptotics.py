import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinnets.asymptotics as asymptotics
from conftest import build_cube_config
from oracles import (find_configs_per_restart, hopf_section, lm_single, spinor_phase,
                     tet_bracket_oracle)
from spinnets.asymptotics import (Configuration, _canonical_rotation, _eigs,
                                  _frame, _make_config, _quaternion_from_rotation,
                                  _search_system, asymptotic_estimate, check_hypotheses,
                                  critical_pair, detprime, detprime_limit, find_configs,
                                  form_qP, form_qpp, form_qkappa, form_r, least_squares)
from spinnets.cli import dispatch
from spinnets.errors import DomainError, HypothesisError, InputError
from spinnets.graphs import vertex_colors
from spinnets.haar import su2_matrix


@pytest.fixture(scope="module")
def tet_configs(tet):
    return find_configs(tet, {e: 2 for e in tet.edge_ids}, restarts=60, seed=7)


def test_phases_match_spinor_oracle(tet):
    # tau_e = <g_v u, g_w u> for the SU(2) matrices of the vertex lifts and
    # the Hopf spinor u over P_e, on both colorings and both ordered pairs
    eidx = {e: i for i, e in enumerate(tet.edge_ids)}

    def signed(cfg, hs):
        return [cfg.vectors[eidx[e]] * (1.0 if side == "left" else -1.0)
                for e, side in (tet.edge_of[h] for h in hs)]

    for colors in ((2,) * 6, (3, 4, 3, 3, 4, 3)):
        col = dict(zip(tet.edge_ids, colors))
        configs = find_configs(tet, col, restarts=30, seed=5)
        assert len(configs) == 2
        for P, Q in ((configs[0], configs[1]), (configs[1], configs[0])):
            pair = critical_pair(tet, col, P, Q)
            lifts = {}
            for v, hs in tet.vertices:
                p, q = signed(P, hs), signed(Q, hs)
                R = _frame(q[0], q[1]) @ _frame(p[0], p[1]).T
                assert np.allclose(R @ np.array(p).T, np.array(q).T, atol=1e-9)
                lifts[v] = su2_matrix(_quaternion_from_rotation(R))
            for e, l, r in tet.edges:
                n = P.vectors[eidx[e]]
                u = hopf_section(n)
                z = 2 * np.conj(u[0]) * u[1]
                assert np.allclose([z.real, z.imag, abs(u[0]) ** 2 - abs(u[1]) ** 2], n,
                                   atol=1e-14)
                t = spinor_phase(lifts[tet.vertex_of[l]], lifts[tet.vertex_of[r]], n)
                assert abs(pair.taus[e] - t) < 1e-14


def test_canonical_rotation_frame():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.standard_normal((6, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[1] = -v[0]  # dependent on v0, so v[2] is the first independent vector
        w = _canonical_rotation(v)
        assert np.allclose(w[0], [0.0, 0.0, 1.0], atol=1e-14)
        assert abs(w[2, 1]) < 1e-14 and w[2, 0] > 0
        assert np.allclose(w @ w.T, v @ v.T, atol=1e-14)
        # a rotation, not a reflection
        assert np.linalg.det(w[[0, 2, 3]]) * np.linalg.det(v[[0, 2, 3]]) > 0
    par = np.outer([1.0, -1.0, 1.0], [0.6, 0.0, 0.8])
    assert np.allclose(_canonical_rotation(par), np.outer([1.0, -1.0, 1.0], [0.0, 0.0, 1.0]))


def test_find_configs_tet(tet, tet_configs):
    assert len(tet_configs) == 2
    for cfg in tet_configs:
        assert cfg.residual < 1e-12
        assert np.allclose(np.linalg.norm(cfg.vectors, axis=1), 1.0, atol=1e-12)
        # regular-tetrahedron geometry: pairwise angles arccos(+-1/3) or opposite
        g = np.abs(cfg.gram - np.eye(6) * (1 - np.abs(cfg.gram).max() * 0))
    s = {c.triple_sign for c in tet_configs}
    assert s == {1, -1}  # P and -P are distinct classes
    # negation symmetry: the two classes have matching Gram matrices
    assert np.allclose(tet_configs[0].gram, tet_configs[1].gram, atol=1e-8)
    # a thin restart budget finds the same classes but says it may be short
    with pytest.warns(UserWarning, match="components may have been missed"):
        few = find_configs(tet, {e: 2 for e in tet.edge_ids}, restarts=3, seed=7)
    assert len(few) == 2


def _singular_at(system, x_bad):
    """The search system with the start x_bad made singular: there its
    residuals are 1e152 and its Jacobian entries 1e-165, so J^T J underflows
    to the zero matrix (and mu to 0) while the gradient J^T f stays above
    gtol, and the first damped solve of that start meets a zero matrix."""
    closure, residuals, jac = system

    def res(x):
        f = residuals(x)
        f[np.all(x == x_bad, axis=-1)] = 1e152
        return f

    def jac_(x):
        J = jac(x)
        J[np.all(x == x_bad, axis=-1)] = 1e-165
        return J
    return closure, res, jac_


def _make_singular(graph, restarts, seed, row, monkeypatch):
    """Patch the search system so that restart `row` of find_configs(graph,
    ..., restarts, seed=seed) meets a singular damped normal matrix."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((restarts, len(graph.edge_ids), 3))
    x0 /= np.linalg.norm(x0, axis=-1, keepdims=True)
    real = asymptotics._search_system
    monkeypatch.setattr(asymptotics, "_search_system",
                        lambda *a: _singular_at(real(*a), x0[row].ravel()))


def test_find_configs_reports_raised_restarts(tet, monkeypatch):
    # a restart that raises inside the batch is skipped, counted and
    # reported in one warning; the other restarts of its batch go on
    real = asymptotics.least_squares
    calls = []

    def rows_seen(fun, x0, **kwargs):
        calls.extend([1] * len(x0))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(asymptotics, "least_squares", rows_seen)
    _make_singular(tet, 20, 7, 6, monkeypatch)
    with pytest.warns(UserWarning, match=r"1 of 20 restarts raised; first: LinAlgError"):
        configs = find_configs(tet, {e: 2 for e in tet.edge_ids}, restarts=20, seed=7)
    assert len(calls) == 20 and len(configs) == 2
    assert sum(c.hits for c in configs) == 19

    # anything else is a bug and propagates
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(asymptotics, "least_squares", broken)
    with pytest.raises(TypeError):
        find_configs(tet, {e: 2 for e in tet.edge_ids}, restarts=20, seed=7)


def test_find_configs_refuses_bad_tol(tet, monkeypatch):
    # a solver that returns its starting points converges nowhere; with
    # tol = nan, `res > tol` is never true and every restart would be kept
    monkeypatch.setattr(asymptotics, "least_squares",
                        lambda fun, x0, **kwargs: SimpleNamespace(
                            x=x0, nfev=0, nfevs=np.zeros(len(x0), dtype=int),
                            errors=[None] * len(x0)))
    col = {e: 2 for e in tet.edge_ids}
    for tol in (float("nan"), float("inf"), 0.0, -1e-10):
        with pytest.raises(DomainError, match="tol"):
            find_configs(tet, col, restarts=5, tol=tol)
    with pytest.warns(UserWarning, match="empty configuration set"):
        assert find_configs(tet, col, restarts=5) == []


def _strict_admissible(graph, rng, top=8):
    """A random coloring with even vertex sums and strict triangles."""
    while True:
        col = {e: int(c) for e, c in zip(graph.edge_ids,
                                         rng.integers(1, top, len(graph.edge_ids)))}
        if all((a + b + c) % 2 == 0 and a < b + c and b < a + c and c < a + b
               for a, b, c in vertex_colors(graph, col)):
            return col


def _config_bits(configs):
    return [(c.vectors.tobytes(), c.residual, c.gram.tobytes(), c.triple_sign, c.hits)
            for c in configs]


def _check_against_oracle(graph, col, restarts, seed, monkeypatch):
    """find_configs against the per-restart oracle on one input: equal
    configuration bits, per-restart nfev (None for a restart that raised)
    and warning texts.  Returns the batched search's configurations, nfev
    list and warning texts."""
    real = asymptotics.least_squares
    rows = []

    def recorded(*args, **kwargs):
        sol = real(*args, **kwargs)
        assert isinstance(sol.nfev, int) and sol.nfev == sum(sol.nfevs.tolist())
        rows.extend(None if exc else int(n) for n, exc in zip(sol.nfevs, sol.errors))
        return sol

    monkeypatch.setattr(asymptotics, "least_squares", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        configs = find_configs(graph, col, restarts=restarts, seed=seed)
        n = len(caught)
        oracle, oracle_rows = find_configs_per_restart(graph, col, restarts, seed=seed)
    monkeypatch.setattr(asymptotics, "least_squares", real)
    texts = [str(w.message) for w in caught]
    assert len(rows) == restarts
    assert _config_bits(configs) == _config_bits(oracle)
    assert rows == oracle_rows and texts[:n] == texts[n:]
    return configs, rows, texts[:n]


def test_batched_search_matches_per_restart_oracle(theta, tet, tetnp, prism, monkeypatch):
    # every configuration and every restart's evaluation count, bit for bit,
    # against one single-start solve per restart
    rng = np.random.default_rng(2025)
    cases = [(tet, {e: 2 for e in tet.edge_ids}, 30, 3)]
    for graph in (theta, tet, tetnp, prism):
        for restarts in (6, 17, 40):
            cases.append((graph, _strict_admissible(graph, rng), restarts,
                          int(rng.integers(0, 1000))))
    for graph, col, restarts, seed in cases:
        configs, _, _ = _check_against_oracle(graph, col, restarts, seed, monkeypatch)
        assert configs or graph is prism


def test_batched_search_across_chunks(tet, prism, monkeypatch):
    # restarts beyond one chunk are drawn and solved chunk by chunk with
    # the numbers of one draw per restart
    monkeypatch.setattr(asymptotics, "_CHUNK", 7)
    rng = np.random.default_rng(31)
    real = asymptotics.least_squares
    calls = []

    def counted(fun, x0, **kwargs):
        calls.append(len(x0))
        return real(fun, x0, **kwargs)
    for graph, chunks in ((tet, [7, 7, 6]), (prism, [7, 7, 1]), (tet, [7, 7])):
        col = _strict_admissible(graph, rng)
        calls.clear()
        monkeypatch.setattr(asymptotics, "least_squares", counted)
        _check_against_oracle(graph, col, sum(chunks), 5, monkeypatch)
        assert calls == chunks


def test_batched_search_with_a_singular_row(tet, monkeypatch):
    # a row whose damped normal matrix is singular in the middle of a batch
    # raises for itself alone; the warning names it as the oracle does
    monkeypatch.setattr(asymptotics, "_CHUNK", 8)
    _make_singular(tet, 20, 11, 10, monkeypatch)
    col = {e: 2 for e in tet.edge_ids}
    _, rows, texts = _check_against_oracle(tet, col, 20, 11, monkeypatch)
    assert rows[10] is None and None not in rows[:10] + rows[11:]
    assert any("1 of 20 restarts raised; first: LinAlgError('Singular matrix')" in t
               for t in texts)


def test_search_jacobian_matches_finite_differences(theta, tet, prism):
    # the analytic Jacobian of (closure(m/|m|), |m|^2 - 1) against central
    # differences, at unit and at non-unit edge vectors
    rng = np.random.default_rng(17)
    for graph in (theta, tet, prism):
        ne = len(graph.edge_ids)
        col = {e: int(c) for e, c in zip(graph.edge_ids, rng.integers(1, 6, ne))}
        _, residuals, jac = _search_system(graph, col)
        unit = rng.standard_normal((ne, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        scaled = unit * rng.uniform(0.5, 2.0, (ne, 1))
        for x in (unit.ravel(), scaled.ravel()):
            h = 1e-6
            fd = np.column_stack([(residuals(x + h * d) - residuals(x - h * d)) / (2 * h)
                                  for d in np.eye(3 * ne)])
            J = jac(x)
            assert J.shape == (3 * len(graph.vertices) + ne, 3 * ne)
            assert np.max(np.abs(J - fd)) < 1e-6


def _rosen(x):
    return np.stack([10 * (x[..., 1] - x[..., 0] ** 2), 1 - x[..., 0]], axis=-1)


def _rosen_jac(x):
    one = np.ones(x.shape[:-1])
    return np.stack([np.stack([-20 * x[..., 0], 10.0 * one], axis=-1),
                     np.stack([-1.0 * one, 0.0 * one], axis=-1)], axis=-2)


def test_least_squares_linear_and_budget():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 4))
    x_true = rng.standard_normal(4)
    b = a @ x_true
    tols = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)
    sol = least_squares(lambda x: x @ a.T - b, np.zeros((1, 4)),
                        jac=lambda x: np.broadcast_to(a, (len(x),) + a.shape),
                        max_nfev=200, **tols)
    assert np.allclose(sol.x[0], x_true, rtol=0, atol=1e-12)
    assert 1 < sol.nfev <= 200
    # Rosenbrock from its usual start needs more than five evaluations
    start = np.array([[-1.2, 1.0]])
    sol = least_squares(_rosen, start, jac=_rosen_jac, max_nfev=5, **tols)
    assert sol.nfev == 5 and np.linalg.norm(sol.x[0] - 1.0) > 1e-3
    sol = least_squares(_rosen, start, jac=_rosen_jac, max_nfev=4000, **tols)
    assert np.allclose(sol.x[0], 1.0, rtol=0, atol=1e-12) and sol.nfev < 4000
    sol = least_squares(lambda x: x + np.inf, np.zeros((1, 2)),
                        jac=lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
                        max_nfev=10, **tols)
    assert isinstance(sol.errors[0], ValueError)
    assert re.search("not finite", str(sol.errors[0]))


def test_least_squares_batch_follows_each_start():
    # one batch of several starts, a non-finite one and a tight budget among
    # them: each row ends where a solve from its start alone ends, bit for bit
    starts = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -3.0], [60.0, 1.0], [1.0, 1.0],
                       [-0.5, 4.0], [3.0, 9.0]])

    def fun(x):
        return _rosen(x) + np.where(x[..., :1] > 50, np.inf, 0.0)

    tols = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)
    for max_nfev in (4000, 7):
        sol = least_squares(fun, starts, jac=_rosen_jac, max_nfev=max_nfev, **tols)
        assert sol.x.shape == starts.shape and sol.nfev == sum(sol.nfevs.tolist())
        for i, x0 in enumerate(starts):
            if x0[0] > 50:
                assert isinstance(sol.errors[i], ValueError) and sol.nfevs[i] == 1
                continue
            x, nfev = lm_single(fun, x0, jac=_rosen_jac, max_nfev=max_nfev, **tols)
            assert sol.errors[i] is None
            assert sol.x[i].tobytes() == x.tobytes() and sol.nfevs[i] == nfev


def test_asymptotics_imports_no_scipy():
    # scipy is not a dependency of the library: nothing under src imports it;
    # nor does the CLI import load logging or concurrent.futures (about 12 ms
    # of set-up per command; the Monte-Carlo threads need neither)
    src = Path(asymptotics.__file__).parent
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.M)
    assert not [p.name for p in src.glob("*.py") if pattern.search(p.read_text())]
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    code = ("import sys, spinnets.cli, spinnets.asymptotics; "
            "print([m for m in ('scipy', 'logging', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_search_repeats_after_monte_carlo(monkeypatch):
    # the configuration search takes the same path, evaluation for
    # evaluation, whether or not a Monte-Carlo job ran before it in the
    # same process
    real = asymptotics.least_squares
    nfev = []

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.extend(sol.nfevs.tolist())
        assert sol.nfev == sum(sol.nfevs.tolist())
        return sol

    monkeypatch.setattr(asymptotics, "least_squares", counted)
    tet_c = '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}'
    search = ["asymptote", "-g", "tetrahedron", "-c", tet_c, "--restarts", "50",
              "--seed", "3"]
    runs = []
    for before in (None, ["integrate", "-g", "tetrahedron", "-c", tet_c, "--samples", "100000",
                          "--seed", "11", "--workers", "2"]):
        if before:
            with redirect_stdout(io.StringIO()):
                assert dispatch(before) == 0
        nfev.clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert dispatch(search) == 0
        assert len(nfev) == 50
        runs.append((sum(nfev), buf.getvalue()))
    assert runs[0] == runs[1]


def test_strict_triangle_precondition(theta):
    with pytest.raises(HypothesisError):
        find_configs(theta, {"e1": 1, "e2": 1, "e3": 2}, restarts=2)


def test_find_configs_missing_edge(theta):
    with pytest.raises(InputError, match="coloring misses edge 'e3'"):
        find_configs(theta, {"e1": 2, "e2": 2}, restarts=2)


def test_form_r_axes_example(tet):
    # P = {x, y, z} with unit colors on three edges sums to 2*identity
    vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                     [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    cfg = _make_config(vecs, 0.0)
    cols = dict.fromkeys(tet.edge_ids, 0)
    for e, v in zip(tet.edge_ids[:3], range(3)):
        cols[e] = 1
    r = form_r(tet, cols, cfg)
    assert np.allclose(r, 2 * np.eye(3))


def test_qP_kernel_contains_diagonal(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    q = form_qP(tet, col, tet_configs[0])
    nv = len(tet.vertices)
    for i in range(3):
        xi = np.tile(np.eye(3)[i], nv)
        assert np.linalg.norm(q @ xi) < 1e-12
    eigs = np.sort(np.abs(np.linalg.eigvalsh(q)))
    assert int(np.sum(eigs < 1e-8 * eigs[-1])) == 3
    assert eigs[3] / eigs[2] > 1e6 if eigs[2] > 0 else True


def test_q_and_r_negation_invariance(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    P = tet_configs[0]
    negP = Configuration(-P.vectors, P.residual, P.gram, -P.triple_sign)
    assert np.allclose(form_qP(tet, col, P), form_qP(tet, col, negP), atol=1e-12)
    assert np.allclose(form_r(tet, col, P), form_r(tet, col, negP), atol=1e-12)


def test_phases_and_hypotheses(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    # |tau| = 1 and theta in (0, pi); for the regular tetrahedron cos(2 theta)
    # is determined by the dihedral angle arccos(1/3)
    for e, t in pair.taus.items():
        assert abs(abs(t) - 1.0) < 1e-10
        assert 0 < pair.thetas[e] < np.pi
        assert abs(abs(t.real) - 1 / 3) < 1e-8
    rep = check_hypotheses(tet, col, tet_configs)
    assert rep.h1 and rep.h2 and rep.h3 and rep.passed
    assert len(rep.pairs) == len(tet_configs) * (len(tet_configs) - 1)


def test_empty_configuration_set_fails(tet):
    col = {e: 2 for e in tet.edge_ids}
    rep = check_hypotheses(tet, col, [])
    assert rep.h1 and rep.h2 and rep.h3 and not rep.passed
    for restarts in (0, -3):
        with pytest.raises(DomainError):
            find_configs(tet, col, restarts=restarts)


def test_kernel_dimensions_3_3_6(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    qp = form_qP(tet, col, tet_configs[0])
    qk = form_qkappa(tet, col, pair, 1.0 + 2 ** -8)
    qpp = form_qpp(tet, col, pair)
    dims = []
    for m in (qp, qk, qpp):
        eigs = np.sort(np.abs(_eigs(m)))
        dims.append(int(np.sum(eigs < 1e-8 * eigs[-1])))
    assert dims == [3, 3, 6]


def test_qkappa_real_part_psd(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    m = form_qkappa(tet, col, pair, 1.01)
    re = (m + m.conj().T).real / 2
    assert np.min(np.linalg.eigvalsh(re)) > -1e-9


def test_detprime_examples():
    assert detprime(np.eye(6), 0) == pytest.approx(1.0)
    assert detprime(np.diag([0.0, 0, 0, 2, 3, 5]), 3) == pytest.approx(30.0)
    with pytest.raises(HypothesisError):
        detprime(np.diag([0.0, 0, 0, 2, 3, 5]), 2)


def test_detprime_rotation_invariance(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    q = form_qP(tet, col, tet_configs[0])
    d0 = detprime(q, 3).real
    rng = np.random.default_rng(5)
    R, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    d1 = detprime(R @ q @ R.T, 3).real
    assert d1 == pytest.approx(d0, rel=1e-6)
    assert d0 > 0


def test_detprime_limit_consistency(tet, tet_configs, monkeypatch):
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    # extrapolants from levels up to j=11 and up to j=12 agree to 4 digits
    assert asymptotics._LEVELS == range(6, 13)
    lim12, _ = detprime_limit(tet, col, pair)
    monkeypatch.setattr(asymptotics, "_LEVELS", range(6, 12))
    lim11, _ = detprime_limit(tet, col, pair)
    assert abs(lim11 - lim12) / abs(lim12) < 1e-4
    # the raw scaled sequence converges linearly toward the same limit
    vs = []
    for j in (11, 12):
        h = 2.0 ** -j
        m = form_qkappa(tet, col, pair, 1.0 + h)
        eigs = sorted(_eigs(m), key=abs)[3:]
        vs.append(complex(np.prod(eigs)) / h ** 3)
    assert abs(vs[0] - vs[1]) / abs(vs[1]) < 2e-3
    assert abs(lim12 - vs[1]) / abs(lim12) < 2e-3


def test_detprime_limit_slope_route(tet, tet_configs):
    # det' of the limit form (kernel 6) times the product of the three
    # linearly vanishing eigenvalue slopes reproduces the extrapolated limit
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    lim, _ = detprime_limit(tet, col, pair)
    d6 = detprime(form_qpp(tet, col, pair), 6)
    slopes = []
    for j in (10, 11):
        h = 2.0 ** -j
        eigs = sorted(_eigs(form_qkappa(tet, col, pair, 1.0 + h)), key=abs)
        slopes.append(complex(np.prod(eigs[3:6])) / h ** 3)
    slope = 2 * slopes[1] - slopes[0]  # one Richardson step
    assert abs(slope * d6 - lim) / abs(lim) < 1e-3


def test_pair_not_in_oscillatory_branch(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    pair_pp = critical_pair(tet, col, tet_configs[0], tet_configs[0])
    assert all(abs(t - 1) < 1e-9 for t in pair_pp.taus.values())
    with pytest.raises(DomainError):
        detprime_limit(tet, col, pair_pp)


def test_pair_contributions_conjugate(tet, tet_configs):
    # the (-P,-Q) contribution is the conjugate of the (P,Q) contribution
    col = {e: 2 for e in tet.edge_ids}
    k = 6
    zs = []
    for (i, j) in ((0, 1), (1, 0)):
        pair = critical_pair(tet, col, tet_configs[i], tet_configs[j])
        _, sq = detprime_limit(tet, col, pair)
        det_r = float(np.linalg.det(form_r(tet, col, tet_configs[i])))
        phase = sum((k * col[e] + 1) * pair.thetas[e] for e in tet.edge_ids)
        sins = float(np.prod([np.sin(pair.thetas[e]) for e in tet.edge_ids]))
        zs.append((1j ** 2) * np.sqrt(det_r) * np.exp(1j * phase) / (sq * sins))
    assert zs[0] == pytest.approx(np.conj(zs[1]), rel=1e-6)


def test_build_forms_surface(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    pair = critical_pair(tet, col, tet_configs[0], tet_configs[1])
    assert form_r(tet, col, tet_configs[0]).shape == (3, 3)
    assert form_qP(tet, col, tet_configs[0]).shape == (12, 12)
    assert form_qkappa(tet, col, pair, 1.5).shape == (12, 12)
    with pytest.raises(DomainError):
        form_qkappa(tet, col, pair, 1.0)


def test_asymptotic_estimate_structure(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    rep = check_hypotheses(tet, col, tet_configs)
    out, out2 = asymptotic_estimate(tet, col, rep, [10, 11])
    assert out["k"] == 10 and out2["k"] == 11
    assert out["terms"]["prefactor"] == pytest.approx(8.0 / (np.pi * 1000.0))
    assert not out["convention_dependent"]
    # changing k rotates each pair phase as the formula prescribes
    assert out2["value"] != out["value"]


def test_asymptotic_estimate_computes_k_independent_data_once(monkeypatch):
    # critical pairs: one per ordered pair, built in check_hypotheses and
    # reused by the estimate; Richardson limits: one per ordered pair,
    # whatever the k-list
    calls = {"critical_pair": 0, "detprime_limit": 0}

    def counted(name):
        fn = getattr(asymptotics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(asymptotics, name, counted(name))
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = dispatch(["asymptote", "-g", "tetrahedron",
                       "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
                       "--k-list", "10,20,40", "--restarts", "30", "--seed", "3"])
    assert rc == 0
    rep = json.loads(buf.getvalue())["results"]
    n = rep["hypotheses"]["n_configs"]
    assert n == 2
    assert [r["k"] for r in rep["estimates"]] == [10, 20, 40]
    assert calls["critical_pair"] == n * (n - 1)
    assert calls["detprime_limit"] == n * (n - 1)


def test_asymptotic_accuracy_k20(tet, tet_configs):
    col = {e: 2 for e in tet.edge_ids}
    rep = check_hypotheses(tet, col, tet_configs)
    est = asymptotic_estimate(tet, col, rep, [20])[0]["value"]
    exact = float(tet_bracket_oracle({e: 40 for e in tet.edge_ids}))
    assert abs(est / exact - 1.0) < 0.1


def test_bricard_cube_fails_h1():
    rng = np.random.default_rng(42)

    def half_turn(p):
        return np.array([-p[0], -p[1], p[2]])

    A = rng.standard_normal(3) + [2, 0, 0]
    B = rng.standard_normal(3) + [0, 2, 0]
    C = rng.standard_normal(3) + [0, 0, 2]
    pos = {"A0": A, "A1": half_turn(A), "B0": B, "B1": half_turn(B),
           "C0": C, "C1": half_turn(C)}
    g, vecs, cols = build_cube_config(pos)
    res = float(np.max(np.linalg.norm(_search_system(g, cols)[0](vecs), axis=1)))
    assert res < 1e-6
    q = form_qP(g, cols, _make_config(vecs, res))
    eigs = np.sort(np.abs(_eigs(q)))
    kernel = int(np.sum(eigs < 1e-8 * eigs[-1]))
    assert kernel > 3  # flexible: an extra infinitesimal motion

    # control: a generic convex octahedron is rigid (kernel exactly 3)
    base = {"A0": [1, 0, 0], "A1": [-1, 0, 0], "B0": [0, 1, 0], "B1": [0, -1, 0],
            "C0": [0, 0, 1], "C1": [0, 0, -1]}
    pos2 = {k: np.array(v, float) + 0.05 * rng.standard_normal(3)
            for k, v in base.items()}
    g2, vecs2, cols2 = build_cube_config(pos2)
    q2 = form_qP(g2, cols2, _make_config(vecs2, 0.0))
    eigs2 = np.sort(np.abs(_eigs(q2)))
    assert int(np.sum(eigs2 < 1e-8 * eigs2[-1])) == 3


def test_prism_all2_fails_h2_honestly(prism):
    # four configuration classes (bipyramid, its negation, and the two
    # apex-folded siblings); fold-pairs share equator vectors exactly, so
    # their phases sit at +/-1 and H2 fails -- and the report says so
    col = {e: 2 for e in prism.edge_ids}
    configs = find_configs(prism, col, restarts=80, seed=7)
    assert len(configs) == 4
    rep = check_hypotheses(prism, col, configs)
    assert rep.h1 and not rep.h2 and not rep.passed
    rows = {tuple(row["pair"]): row for row in rep.to_obj()["pairs"]}
    dev = {ij: min(abs(t * t - 1.0) for t in pair.taus.values())
           for ij, pair in rep.pairs.items()}
    good = [ij for ij in dev if rows[ij]["H2_pass"]]
    bad = [ij for ij in dev if not rows[ij]["H2_pass"]]
    assert bad and all(dev[ij] < 1e-12 for ij in bad)
    # the report prints those noise-level deviations as 0.0 and keeps 12
    # significant digits of the others
    shown = {ij: row["min_abs_tau2_minus_1"] for ij, row in rows.items()}
    assert all(shown[ij] == 0.0 for ij in bad)
    assert all(shown[ij] == float(f"{dev[ij]:.12g}") > 0 for ij in good)
    # the genuinely opposite pair still satisfies H2 and H3
    assert good and all(rows[ij].get("qpp_corank") == 6 for ij in good)
