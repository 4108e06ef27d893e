"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure and asserting the stated tolerance and time budget."""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from conftest import random_holonomy
from oracles import diagonal_holonomy, pq_full, tet_bracket_oracle, tet_value_oracle, w1_matrix
from spinnets.cli import dispatch
from spinnets.evaluator import bracket_square, eval_spin_network, theta_value
from spinnets.graphs import admissible_colorings
from spinnets.haar import (char_value, haar_su2, mc_bracket, mc_orthogonality,
                           mc_W_point, su2_matrix, _chebyshev_u)
from spinnets.polyring import det_poly
from spinnets.series import (abelian_curve_sum, build_pq, compare_with_evaluations,
                             nonplanar_fix, pfaffian_dimer_sum, series_Z,
                             westbury_polynomial)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.1f}s / "
                  f"budget {self.seconds}s)")
            assert self.elapsed < self.seconds, f"{self.name} exceeded time budget"
        return False


def test_c01_theta_closed_form(theta):
    with Budget("1 theta closed form", 10):
        count = 0
        for col in admissible_colorings(theta, max_color=10):
            v = eval_spin_network(theta, col)
            assert v.im == 0
            assert abs(v.re) == theta_value(col["e1"], col["e2"], col["e3"])
            count += 1
        assert count == 381


def test_c02_racah_oracle_equivalence(tet):
    with Budget("2 Racah-oracle equivalence", 60):
        count = 0
        for col in admissible_colorings(tet, max_color=6):
            v = eval_spin_network(tet, col)
            assert v.im == 0
            assert v.re == tet_value_oracle(col), col
            count += 1
        assert count > 1000


def test_c03_theorem1_series(theta, tet):
    with Budget("3 determinant series vs evaluations", 300):
        for graph, degree, hol in (
            (theta, 12, None),
            (theta, 12, random_holonomy(theta, seed=101)),
            (tet, 8, None),
            (tet, 8, random_holonomy(tet, seed=102)),
        ):
            z = series_Z(graph, hol, degree)
            if graph.crossings:
                z = nonplanar_fix(z, graph)
            rows = compare_with_evaluations(graph, hol, z, degree)
            assert rows and all(r[3] for r in rows), graph.name


def test_c04_westbury_determinant(theta, tet, prism):
    with Budget("4 Westbury determinant identity", 120):
        for g in (theta, tet, prism):
            assert det_poly(pq_full(build_pq(g))) == westbury_polynomial(g).pow(4), g.name


def test_c05_abelian_pfaffian(theta, tet):
    import random

    with Budget("5 abelian/Pfaffian identities", 120):
        rng = random.Random(55)
        for g in (theta, tet):
            pf = pfaffian_dimer_sum(g)
            assert pf * pf == abelian_curve_sum(g), g.name
            for _ in range(5):
                t = {h: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for h in g.halfedges}
                ns, w1 = w1_matrix(g, t)
                assert abelian_curve_sum(g, diagonal_holonomy(g, t)) == det_poly(w1), g.name


def test_c06_nonplanar_fix(tetnp):
    with Budget("6 crossing-presentation sign fix", 120):
        z = nonplanar_fix(series_Z(tetnp, degree=6), tetnp)
        rows = compare_with_evaluations(tetnp, None, z, 6)
        assert rows and all(r[3] for r in rows)


def test_c07_integral_formula(theta, tet):
    with Budget("7 Monte-Carlo bracket", 180):
        est = mc_bracket(theta, {"e1": 2, "e2": 2, "e3": 2}, samples=10 ** 6, seed=7)
        assert abs(est.z_score(1.0)) < 3, est
        est = mc_bracket(theta, {"e1": 1, "e2": 1, "e3": 1}, samples=10 ** 6, seed=7)
        assert abs(est.z_score(0.0)) < 3, est
        col = {e: 2 for e in tet.edge_ids}
        est = mc_bracket(tet, col, samples=10 ** 6, seed=7)
        assert abs(est.z_score(float(bracket_square(tet, col)))) < 3, est


def test_c08_w_at_a_point(theta):
    with Budget("8 Monte-Carlo series point", 60):
        y = {"e1": 0.3, "e2": 0.2, "e3": 0.1}
        target = 1.0 / ((1 - 0.3 * 0.2) * (1 - 0.2 * 0.1) * (1 - 0.3 * 0.1))
        est = mc_W_point(theta, y, samples=10 ** 6, seed=8)
        assert abs(est.z_score(target)) < 3, est


def test_c09_character_lemma_spot_checks():
    with Budget("9 character/lemma spot checks", 60):
        n = 10 ** 6
        rng = np.random.default_rng(9)
        A = su2_matrix(haar_su2(rng, 1)[0])
        B = su2_matrix(haar_su2(rng, 1)[0])
        g = su2_matrix(haar_su2(rng, n))
        half_ab = 0.5 * np.real(np.trace(A @ B.conj().T))
        for c in (1, 2, 3):
            ta = _chebyshev_u(c, 0.5 * np.real(np.einsum("ij,nji->n", A, g)))
            tb = _chebyshev_u(c, 0.5 * np.real(np.einsum("ij,nji->n", B, g)))
            vals = ta * tb
            se = vals.std(ddof=1) / n ** 0.5
            target = _chebyshev_u(c, np.array(half_ab)) / (c + 1)
            assert abs(vals.mean() - target) < 3 * se, c
        # coherent-state identity, complex mean
        gm = su2_matrix(haar_su2(rng, 1)[0])
        q = haar_su2(rng, n)
        v = np.stack([q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]], axis=1)
        inner = np.einsum("ni,ij,nj->n", v.conj(), gm, v)
        for nn in (1, 2, 3):
            z = (nn + 1) * inner ** nn
            target = char_value(nn, np.array([0.5 * np.real(np.trace(gm)), 0, 0, 0]))
            # at nn = 1 the real part is exactly constant (g + g† = tr(g) id),
            # so the z-test degenerates; require exact agreement instead
            se_re = max(z.real.std(ddof=1) / n ** 0.5, 1e-9)
            se_im = max(z.imag.std(ddof=1) / n ** 0.5, 1e-9)
            assert abs(z.real.mean() - target) < 3 * se_re, nn
            assert abs(z.imag.mean()) < 3 * se_im, nn


def test_c10_asymptotics(tet):
    from spinnets.asymptotics import (asymptotic_estimate, check_hypotheses,
                                      critical_pair, find_configs, form_qP,
                                      form_qkappa, form_qpp, _eigs)

    with Budget("10 stationary-phase asymptotics", 300):
        col = {e: 2 for e in tet.edge_ids}
        configs = find_configs(tet, col, restarts=200, tol=1e-10, seed=7)
        report = check_hypotheses(tet, col, configs)
        assert report.h1 and report.h2 and report.h3
        pair = critical_pair(tet, col, configs[0], configs[1])
        dims = []
        for m in (form_qP(tet, col, configs[0]),
                  form_qkappa(tet, col, pair, 1.0 + 2 ** -8),
                  form_qpp(tet, col, pair)):
            eigs = np.sort(np.abs(_eigs(m)))
            dims.append(int(np.sum(eigs < 1e-8 * eigs[-1])))
        assert dims == [3, 3, 6]
        errors = []
        for row in asymptotic_estimate(tet, col, report, (10, 20, 40)):
            exact = float(tet_bracket_oracle({e: 2 * row["k"] for e in tet.edge_ids}))
            errors.append(abs(row["value"] / exact - 1.0))
        assert errors[0] >= errors[1] >= errors[2], errors
        assert errors[2] <= 0.15, errors


def test_c11_orthogonality_norm(theta):
    with Budget("11 orthogonality norm", 60):
        est = mc_orthogonality(theta, {"e1": 2, "e2": 2, "e3": 2},
                               samples=10 ** 6, seed=11)
        assert abs(est.z_score(1.0 / 3.0)) < 3, est


def test_c12_determinism():
    with Budget("12 determinism of stochastic reports", 120):
        def run(*argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = dispatch(list(argv))
            assert rc == 0
            return buf.getvalue()

        commands = [
            ("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}',
             "--samples", "20000", "--seed", "3", "--workers", "2"),
            ("integrate", "-g", "theta", "--target", "W", "--samples", "20000",
             "--seed", "3", "--y", "e1=0.3", "--y", "e2=0.2", "--y", "e3=0.1"),
            ("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}',
             "--target", "orthogonality", "--samples", "20000", "--seed", "3"),
            ("check", "-g", "tetrahedron",
             "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
             "--restarts", "30", "--seed", "3"),
            ("asymptote", "-g", "tetrahedron",
             "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
             "--k-list", "10,20", "--restarts", "30", "--seed", "3"),
        ]
        for argv in commands:
            assert run(*argv) == run(*argv), argv[0]
