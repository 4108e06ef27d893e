"""Reduced-scale acceptance checks behind `spinnet selftest`."""

from __future__ import annotations

import math
import sys

from . import bundled_graph_path
from .evaluator import eval_spin_network, theta_value
from .graphs import admissible_colorings, load_graph
from .haar import mc_bracket, mc_W_point, mc_orthogonality
from .polyring import inverse_series
from .series import (abelian_curve_sum, build_pq, compare_with_evaluations,
                     nonplanar_fix, pfaffian_dimer_sum, series_Z, truncated_det,
                     westbury_polynomial)


def _check(name, fn, failures):
    try:
        ok, detail = fn()
    except Exception as exc:  # a selftest must never crash the report
        ok, detail = False, f"exception: {exc!r}"
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    if not ok:
        failures.append(name)


def run(seed: int = 0) -> int:
    theta = load_graph(bundled_graph_path("theta"))
    tet = load_graph(bundled_graph_path("tetrahedron"))
    tetnp = load_graph(bundled_graph_path("tetrahedron_nonplanar"))
    failures: list[str] = []

    def theta_closed_form():
        for col in admissible_colorings(theta, max_color=4):
            v = eval_spin_network(theta, col)
            if v.im != 0 or abs(v.re) != theta_value(col["e1"], col["e2"], col["e3"]):
                return False, f"mismatch at {col}"
        return True, ""

    def series_vs_eval():
        z = series_Z(theta, degree=6)
        rows = compare_with_evaluations(theta, None, z, 6)
        return all(r[3] for r in rows), f"{len(rows)} coefficients"

    def westbury_det():
        # Newton's identities against cycle counting; 4V is the degree bound
        for g in (theta, tet):
            if truncated_det(build_pq(g), 4 * len(g.vertices)) != westbury_polynomial(g).pow(4):
                return False, g.name
        return True, ""

    def pfaffian_square():
        for g in (theta, tet):
            pf = pfaffian_dimer_sum(g)
            if pf * pf != abelian_curve_sum(g) or pf != westbury_polynomial(g):
                return False, g.name
        return True, ""

    def sign_fix():
        z = nonplanar_fix(series_Z(tetnp, degree=4), tetnp)
        rows = compare_with_evaluations(tetnp, None, z, 4)
        return all(r[3] for r in rows), f"{len(rows)} coefficients"

    def curves_sign_fix():
        curves = nonplanar_fix(inverse_series(abelian_curve_sum(tetnp), 4), tetnp)
        p = westbury_polynomial(tetnp)
        return curves == inverse_series(p * p, 4), ""

    def mc_theta():
        col = {"e1": 2, "e2": 2, "e3": 2}
        est = mc_bracket(theta, col, samples=40_000, seed=seed)
        return abs(est.z_score(1.0)) < 5, f"z={est.z_score(1.0):.2f}"

    def mc_w():
        y = {"e1": 0.3, "e2": 0.2, "e3": 0.1}
        target = 1.0 / ((1 - 0.06) * (1 - 0.02) * (1 - 0.03))
        est = mc_W_point(theta, y, samples=40_000, seed=seed)
        return abs(est.z_score(target)) < 5, f"z={est.z_score(target):.2f}"

    def mc_orth():
        col = {"e1": 2, "e2": 2, "e3": 2}
        est = mc_orthogonality(theta, col, samples=40_000, seed=seed)
        return abs(est.z_score(1.0 / 3.0)) < 5, f"z={est.z_score(1/3):.2f}"

    def mc_determinism():
        col = {"e1": 2, "e2": 2, "e3": 2}
        a = mc_bracket(theta, col, samples=20_000, seed=seed, workers=3)
        b = mc_bracket(theta, col, samples=20_000, seed=seed, workers=3)
        return a == b, ""

    def hypotheses():
        from .asymptotics import asymptotic_estimate, check_hypotheses, find_configs

        col = {e: 2 for e in tet.edge_ids}
        configs = find_configs(tet, col, restarts=40, seed=seed or 7)
        rep = check_hypotheses(tet, col, configs)
        if not (rep.passed and len(configs) == 2):
            return False, f"configs={len(configs)}"
        rows = asymptotic_estimate(tet, col, rep, (10, 20))
        ok = all(math.isfinite(r["value"]) and not r["convention_dependent"] for r in rows)
        return ok, f"configs={len(configs)}"

    _check("theta closed form (colors <= 4)", theta_closed_form, failures)
    _check("series coefficients match evaluations (theta, deg 6)", series_vs_eval, failures)
    _check("determinant equals 4th power of cycle polynomial", westbury_det, failures)
    _check("dimer sum squared equals curve sum", pfaffian_square, failures)
    _check("crossing sign fix (tetrahedron_nonplanar, deg 4)", sign_fix, failures)
    _check("sign-fixed curves series equals westbury (tetrahedron_nonplanar, deg 4)",
           curves_sign_fix, failures)
    _check("MC bracket theta (2,2,2) near 1", mc_theta, failures)
    _check("MC series point (theta)", mc_w, failures)
    _check("MC orthogonality norm theta (2,2,2) near 1/3", mc_orth, failures)
    _check("MC determinism (seed, workers)", mc_determinism, failures)
    _check("tetrahedron hypotheses H1-H3", hypotheses, failures)

    if failures:
        print(f"{len(failures)} selftest check(s) failed", file=sys.stderr)
        return 1
    return 0
