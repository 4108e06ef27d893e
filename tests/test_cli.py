import copy
import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from conftest import (exact_text, graph_obj, presentations, prism_graph, random_holonomy,
                      random_unitary_holonomy, shear_gauge)
from oracles import report_text, series_recurrence_objects, truncated_det_entrywise

from spinnets import bundled_graph_path, load_graph
from spinnets import polyring
from spinnets import series as series_module
from spinnets.asymptotics import _THETA_ROUNDING, PHASE_TOL, scale_prefactor
from spinnets.cli import dispatch
from spinnets.graphs import Holonomy, gauge_transform
from spinnets.polyring import MAX_EXPONENT, MPoly, Namespace
from spinnets.rational import QQi


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = dispatch(list(argv))
    return rc, buf.getvalue()


def test_eval_theta_c222():
    rc, out = run_cli("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}')
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["abs"] == pytest.approx(3.0)
    assert rep["results"]["value"] == {"re": "-3", "im": "0"}
    assert rep["results"]["bracket_square"] == "1"


def test_eval_at_the_color_bound():
    rc, _ = run_cli("eval", "-g", "theta", "-c", '{"e1":60,"e2":58,"e3":2}')
    assert rc == 0
    rc, _ = run_cli("eval", "-g", "theta", "-c", '{"e1":61,"e2":59,"e3":2}')
    assert rc == 2


def test_eval_bundled_coloring_file(tmp_path):
    cpath = bundled_graph_path("theta").parent / "theta_c222.json"
    rc, out = run_cli("eval", "-g", "theta", "-c", str(cpath))
    assert rc == 0
    assert json.loads(out)["results"]["abs"] == pytest.approx(3.0)


def test_series_westbury_matches_det():
    rc1, out1 = run_cli("series", "-g", "theta", "--degree", "4", "--method", "westbury")
    rc2, out2 = run_cli("series", "-g", "theta", "--degree", "4", "--method", "det")
    assert rc1 == rc2 == 0
    s1 = json.loads(out1)["results"]["series"]
    s2 = json.loads(out2)["results"]["series"]
    assert s1 == s2


@pytest.mark.parametrize("name, degree", [("theta", 8), ("tetrahedron", 8),
                                          ("tetrahedron_nonplanar", 8), ("prism3", 8)])
def test_series_stdout_matches_the_oracle_kernels(tmp_path, name, degree):
    """`series --method det` under the trivial holonomy, a shear gauge of it
    and a gauged random SL(2) holonomy, with and without
    --check-against-eval, prints the same bytes and exits the same with the
    entry-wise determinant and the recurrence on coefficient objects
    patched in."""
    graph = load_graph(bundled_graph_path(name))
    holonomies = [gauge_transform(graph, Holonomy.trivial(graph), shear_gauge(graph, 1)),
                  gauge_transform(graph, random_holonomy(graph, seed=2), shear_gauge(graph, 5))]
    argvs = [["series", "-g", name, "--degree", str(degree)]]
    for j, hol in enumerate(holonomies):
        path = tmp_path / f"h{j}.json"
        path.write_text(json.dumps({h: [[exact_text(x) for x in row] for row in m]
                                    for h, m in hol.entries.items()}))
        argvs.append(argvs[0] + ["-H", str(path)])
    argvs += [argv + ["--check-against-eval"] for argv in argvs]
    got = [run_cli(*argv) for argv in argvs]
    with mock.patch.object(series_module, "truncated_det", truncated_det_entrywise), \
            mock.patch.object(polyring, "_series_recurrence", series_recurrence_objects):
        want = [run_cli(*argv) for argv in argvs]
    assert got == want
    assert all(rc == 0 for rc, _ in got)


def test_series_cycle_routes_refuse_genus_one(tmp_path, capsys):
    # the right vertex lists its half-edges in the left vertex's order, so the
    # rotation system has one face and genus 1; westbury and pfaffian printed
    # a wrong series there with exit 0, while det agrees with the evaluator
    path = tmp_path / "theta_genus1.json"
    path.write_text(json.dumps({
        "name": "theta_genus1",
        "vertices": [{"id": "u", "halfedges": ["u1", "u2", "u3"]},
                     {"id": "v", "halfedges": ["v1", "v2", "v3"]}],
        "edges": [{"id": f"e{i}", "left": f"u{i}", "right": f"v{i}"} for i in (1, 2, 3)],
    }))
    for method in ("westbury", "pfaffian"):
        capsys.readouterr()
        rc, out = run_cli("series", "-g", str(path), "--method", method, "--degree", "4")
        assert rc == 2 and out == "", method
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), (method, err)
    rc, out = run_cli("series", "-g", str(path), "--method", "det", "--degree", "4",
                      "--check-against-eval")
    assert rc == 0 and json.loads(out)["results"]["check_all_equal"] is True


def test_series_check_against_eval():
    # curves expands det(W1), which carries the crossing signs, so with
    # crossings it is sign-fixed like det
    for graph, method in (("tetrahedron", "det"), ("tetrahedron_nonplanar", "curves")):
        rc, out = run_cli("series", "-g", graph, "--degree", "4",
                          "--method", method, "--check-against-eval")
        assert rc == 0, method
        rep = json.loads(out)
        assert rep["results"]["sign_fixed"] is True
        assert rep["results"]["check_all_equal"] is True


@pytest.mark.parametrize("method", ["curves", "westbury", "pfaffian"])
def test_series_routes_accept_an_identity_holonomy_file(tmp_path, method):
    # a -H file of identities is the trivial holonomy: it exited 2 with
    # "supports only the trivial holonomy"
    path = tmp_path / "eye.json"
    path.write_text(json.dumps({h: [[1, 0], [0, 1]] for h in ("u1", "u2", "u3", "v1", "v2", "v3")}))
    argv = ("series", "-g", "theta", "--degree", "4", "--method", method, "--check-against-eval")
    (rc, out), (rc0, out0) = run_cli(*argv, "-H", str(path)), run_cli(*argv)
    with_h, plain = json.loads(out), json.loads(out0)
    assert rc == rc0 == 0 and with_h["inputs"].pop("holonomy")
    assert {**with_h, "command": None} == {**plain, "command": None}


def test_contraction_past_the_term_budget_exits_1(monkeypatch, capsys):
    import spinnets.polyring

    argv = ("eval", "-g", "tetrahedron", "-c", '{"ab":4,"ac":4,"ad":4,"bc":4,"bd":4,"cd":4}')
    monkeypatch.setattr(spinnets.polyring, "TERM_BUDGET", 20)
    capsys.readouterr()
    rc, out = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and out == ""
    assert len(err) == 1 and err[0].startswith("failure: ") and "term budget of 20" in err[0]
    monkeypatch.undo()
    assert run_cli(*argv)[0] == 0


# westbury squares the 8-term cycle polynomial, 64 coefficient products,
# before its series runs, so its series step is reached only at a budget of 64
@pytest.mark.parametrize("method, degree, budget", [("det", "8", 20), ("westbury", "10", 64)],
                         ids=["det", "westbury"])
def test_series_past_the_term_budget_exits_1(monkeypatch, capsys, method, degree, budget):
    argv = ("series", "-g", "tetrahedron", "--degree", degree, "--method", method)
    monkeypatch.setattr(polyring, "TERM_BUDGET", budget)
    capsys.readouterr()
    rc, out = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and out == ""
    assert len(err) == 1 and err[0].startswith("failure: the degree-"), err
    assert "part of a series" in err[0] and f"term budget of {budget}" in err[0]
    monkeypatch.undo()
    assert run_cli(*argv)[0] == 0


def test_curve_walk_past_the_term_budget_exits_1(monkeypatch, capsys, tmp_path):
    # the curve sum on prism_graph(5) takes about 101 k walk steps, five
    # times the lowered budget
    path = tmp_path / "prism5.json"
    path.write_text(json.dumps(graph_obj(prism_graph(5))))
    monkeypatch.setattr(polyring, "TERM_BUDGET", 20_000)
    capsys.readouterr()
    rc, out = run_cli("series", "-g", str(path), "--degree", "2", "--method", "curves")
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and out == ""
    assert len(err) == 1 and err[0].startswith("failure:"), err


@pytest.mark.parametrize("method", ["westbury", "pfaffian"])
def test_square_of_the_cycle_polynomial_past_the_term_budget_exits_1(monkeypatch, capsys,
                                                                     method):
    # the square of the tetrahedron's 8-term cycle polynomial takes 64
    # coefficient products; it ran unchecked, and is now refused before
    # any of its terms is formed
    argv = ("series", "-g", "tetrahedron", "--degree", "8", "--method", method)
    monkeypatch.setattr(polyring, "TERM_BUDGET", 20)
    capsys.readouterr()
    rc, out = run_cli(*argv)
    assert rc == 1 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        "failure: a product would form up to 64 terms, past the term budget of 20"]


@pytest.mark.parametrize("method", ["westbury", "pfaffian"])
def test_cycle_polynomial_past_the_term_budget_exits_1(monkeypatch, capsys, method):
    # the tetrahedron's cycle space has 2^3 = 8 elements, a cycle term or a
    # dimer configuration each; past the budget the enumeration is refused
    # before it starts
    argv = ("series", "-g", "tetrahedron", "--degree", "2", "--method", method)
    monkeypatch.setattr(polyring, "TERM_BUDGET", 7)
    capsys.readouterr()
    rc, out = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and out == ""
    assert err == ["failure: the cycle polynomial would form up to 8 terms, past the term "
                   "budget of 7"]
    monkeypatch.undo()
    assert run_cli(*argv)[0] == 0


def test_check_past_the_color_bound_is_refused(dumbbell_path, capsys):
    # the loop a carries the whole total: the check exited 2 naming color 61
    # from inside the evaluator
    rc, out = run_cli("series", "-g", str(dumbbell_path), "--degree", "61", "--check-against-eval")
    assert (rc, out, capsys.readouterr().err.splitlines()) == (2, "", [
        "input error: --check-against-eval at degree 61 needs color 61, past the "
        "evaluator's bound 60"])


def test_holonomy_file_that_is_no_object_exits_2(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text("[1]")
    rc, out = run_cli("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}', "-H", str(path))
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert err == ["input error: holonomy must be a JSON object {half-edge: 2x2 matrix}"]


def test_series_loop_edges_match_evaluations(dumbbell_path):
    # the loop and the angle between its half-edges link the same pair of
    # nodes of the blown-up graph; dropping either link broke both routes
    for method in ("curves", "pfaffian"):
        rc, out = run_cli("series", "-g", str(dumbbell_path), "--degree", "6",
                          "--method", method, "--check-against-eval")
        assert rc == 0, method
        rep = json.loads(out)
        assert len(rep["results"]["check"]) > 1, method
        assert rep["results"]["check_all_equal"] is True, method


def test_series_check_exits_1_on_unequal_coefficient(monkeypatch, capsys):
    import spinnets.series
    from spinnets.rational import QQi

    evaluate = spinnets.series.eval_spin_network
    wrong = {"e1": 2, "e2": 2, "e3": 2}

    def stub(graph, coloring, holonomy=None):
        value = evaluate(graph, coloring, holonomy)
        return value + QQi(1) if coloring == wrong else value

    monkeypatch.setattr(spinnets.series, "eval_spin_network", stub)
    capsys.readouterr()
    rc, out = run_cli("series", "-g", "theta", "--degree", "6", "--method", "det",
                      "--check-against-eval")
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    res = json.loads(out)["results"]
    assert res["check_all_equal"] is False
    assert [r["coloring"] for r in res["check"] if not r["equal"]] == [wrong]
    assert [line for line in err if not line.startswith("elapsed_ms=")] == [
        f"failure: 1 of {len(res['check'])} series coefficients differ from the evaluations"]


def test_integrate_report_fields():
    rc, out = run_cli("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}',
                      "--samples", "20000", "--seed", "9", "--workers", "2")
    assert rc == 0
    rep = json.loads(out)
    est = rep["results"]["estimate"]
    assert set(est) == {"mean", "stderr", "samples", "seed", "target", "z_score"}
    assert abs(est["z_score"]) < 4


def test_integrate_w_target():
    rc, out = run_cli("integrate", "-g", "theta", "--target", "W",
                      "--samples", "20000", "--seed", "9",
                      "--y", "e1=0.3", "--y", "e2=0.2", "--y", "e3=0.1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["estimate"]["mean"] == pytest.approx(
        1.0 / ((1 - 0.06) * (1 - 0.02) * (1 - 0.03)), rel=0.05)


def test_check_subcommand_passes():
    rc, out = run_cli("check", "-g", "tetrahedron",
                      "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
                      "--restarts", "40")
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["hypotheses"]["H1"] is True
    assert rep["results"]["hypotheses"]["H2"] is True
    assert rep["results"]["hypotheses"]["H3"] is True


def test_check_exit_1_on_hypothesis_failure():
    # degenerate coloring (non-strict triangles) is a hypothesis failure
    rc, _ = run_cli("check", "-g", "theta", "-c", '{"e1":1,"e2":1,"e3":2}',
                    "--restarts", "2")
    assert rc == 1


def test_integrate_exit_1_when_squared_samples_underflow(capsys):
    # orthogonality at colors 500 and 600: the squared samples underflow, and
    # each printed stderr 0.0 and "z_score": Infinity (not JSON) with exit 0
    for c, rc_want in ((600, 1), (500, 1), (400, 0)):
        capsys.readouterr()
        coloring = json.dumps(dict.fromkeys(("e1", "e2", "e3"), c))
        with pytest.warns(UserWarning, match="colors above 10"):
            rc, out = run_cli("integrate", "-g", "theta", "-c", coloring,
                              "--target", "orthogonality", "--samples", "10000")
        assert rc == rc_want, c
        err = capsys.readouterr().err.splitlines()
        if rc_want:
            assert out == "" and len(err) == 1 and err[0].startswith("failure:"), (c, err)
        else:
            assert json.loads(out)["results"]["estimate"]["stderr"] > 0.0, c


def test_selftest_passes():
    rc, out = run_cli("selftest")
    assert rc == 0
    assert out and all(line.startswith("PASS") for line in out.splitlines()), out


def test_check_exit_1_on_empty_configuration_set():
    # no restart converges below tol = 1e-300: an empty search is not a pass
    with pytest.warns(UserWarning, match="empty configuration set"):
        rc, out = run_cli("check", "-g", "tetrahedron",
                          "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
                          "--restarts", "2", "--tol", "1e-300")
    assert rc == 1
    assert json.loads(out)["results"]["hypotheses"]["n_configs"] == 0


def test_asymptote_csv_matches_json():
    # the csv report carries the JSON report's rounded estimates as plain
    # floats, one row per k
    args = ("asymptote", "-g", "tetrahedron",
            "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}',
            "--restarts", "30", "--seed", "3")
    rc, out = run_cli(*args)
    rc_csv, csv = run_cli(*args, "--report", "csv")
    assert rc == rc_csv == 0
    estimates = json.loads(out)["results"]["estimates"]
    header, *rows = (line.split(",") for line in csv.splitlines())
    assert header == ["k", "value", "first_sum", "second_sum", "convention_dependent"]
    assert len(rows) == len(estimates) == 3
    for row, est in zip(rows, estimates):
        cells = dict(zip(header, row))
        assert cells.pop("convention_dependent") == str(est["convention_dependent"])
        assert all(float(cell) == est[key] for key, cell in cells.items())


def test_asymptote_refuses_a_scale_beyond_floating_point(capsys):
    # a k whose prefactor (2N)^1.5 / (pi k^3)^(N-1) is not a finite positive
    # float was an OverflowError traceback (exit 1); it is refused with the
    # other --k-list checks, before the configuration search
    tet_c = '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}'
    prism_c = json.dumps({e: 2 for e in ("t12", "t23", "t13", "b12", "b23", "b13",
                                         "s1", "s2", "s3")})
    with mock.patch("spinnets.asymptotics.find_configs", side_effect=AssertionError):
        for graph, coloring, k in (("tetrahedron", tet_c, 10 ** 103),
                                   ("tetrahedron", tet_c, 10 ** 400),
                                   ("prism3", prism_c, 10 ** 60)):
            rc, out = run_cli("asymptote", "-g", graph, "-c", coloring,
                              "--k-list", f"10,{k}", "--restarts", "30", "--seed", "3")
            err = capsys.readouterr().err
            assert rc == 2 and out == ""
            assert err.startswith("input error: scale k = ~1e") and err.count("\n") == 1
    # the largest power of ten the tetrahedron's prefactor takes; the command
    # refuses it on its phase bound (test_asymptote_refuses_a_scale_past_the_phase_bound)
    tet = load_graph(bundled_graph_path("tetrahedron"))
    assert 0 < scale_prefactor(tet, 10 ** 102) < 1e-300


TET_C = {"ab": 2, "ac": 2, "ad": 2, "bc": 2, "bd": 2, "cd": 2}


def test_asymptote_refuses_a_scale_past_the_phase_bound(capsys):
    # for k = 10^60 the command printed a row with no correct digit of the
    # pair phase and exited 0; a k whose phase error bound
    # k * sum_e c_e * max(tol, _THETA_ROUNDING) passes PHASE_TOL is refused
    # with the other --k-list checks, before the configuration search
    last = int(PHASE_TOL / (sum(TET_C.values()) * 1e-10))
    assert last == 83333333
    args = ("asymptote", "-g", "tetrahedron", "-c", json.dumps(TET_C), "--restarts", "30",
            "--seed", "3", "--report", "csv")
    with mock.patch("spinnets.asymptotics.find_configs", side_effect=AssertionError):
        for k_list in (f"10,{last + 1}", f"{10 ** 60}", f"{last + 1},10"):
            rc, out = run_cli(*args, "--k-list", k_list)
            err = capsys.readouterr().err
            assert rc == 2 and out == ""
            assert "is past the phase accuracy" in err and err.count("\n") == 1
    rc, out = run_cli(*args, "--k-list", f"10,{last}")
    assert rc == 0 and [row.split(",")[0] for row in out.splitlines()[1:]] == ["10", str(last)]
    # the bound scales with --tol, and a tol below the rounding floor
    # keeps the floor
    rc, _ = run_cli(*args, "--k-list", f"{last}", "--tol", "2e-10")
    assert rc == 2
    with mock.patch("spinnets.asymptotics.find_configs", side_effect=AssertionError):
        rc, _ = run_cli(*args, "--k-list", str(int(PHASE_TOL / (12 * _THETA_ROUNDING)) + 1),
                        "--tol", "1e-300")
    assert rc == 2 and "* 1e-14 passes" in capsys.readouterr().err


def test_input_errors_exit_2(tmp_path, capsys):
    rc, _ = run_cli("eval", "-g", "no_such_file.json", "-c", "{}")
    assert rc == 2
    rc, _ = run_cli("eval", "-g", "theta", "-c", '{"e1":1}')
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run_cli("eval", "-g", str(bad), "-c", "{}")
    assert rc == 2
    tet_c = '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}'
    th_c = '{"e1":2,"e2":2,"e3":2}'
    w_theta = ("integrate", "-g", "theta", "--target", "W", "--samples", "10000",
               "--y", "e1=0.1", "--y", "e2=0.1", "--y", "e3=0.1")
    ident = {h: [[1, 0], [0, 1]] for h in ("u1", "u2", "u3", "v1", "v2", "v3")}
    theta = json.loads(bundled_graph_path("theta").read_text())

    def theta_with(path, value):
        obj = copy.deepcopy(theta)
        *keys, last = path
        reduce(getitem, keys, obj)[last] = value
        return obj

    files = {
        "graph_array": [],
        # ids that are not strings: each was a TypeError traceback
        "graph_halfedge": theta_with(("vertices", 0, "halfedges", 0), [1]),
        "graph_vertex_id": theta_with(("vertices", 0, "id"), {"a": 1}),
        "graph_edge_id": theta_with(("edges", 0, "id"), ["x"]),
        "graph_crossing": theta_with(("crossings",), [1]),
        "graph_crossing_pair": theta_with(("crossings",), [["e1", ["x"]]]),
        "hol_array": [],
        "hol_not_2x2": {"u1": 5},
        "hol_unknown": {**ident, "zz": [[1, 0], [0, 1]]},
        "hol_bad_pair": {**ident, "u1": [[["a", 1], 0], [0, 1]]},
        "hol_nan": {**ident, "u1": [[[float("nan"), 0.0], 0], [0, 1]]},
        "hol_zero_den": {**ident, "u1": [["1/0", 0], [0, 1]]},
        "hol_zero_den_im": {**ident, "u1": [["2/0 i", 0], [0, 1]]},
    }
    (tmp_path / "hol_flip.json").write_text(json.dumps({h: [[0, 1], [-1, 0]] for h in ident}))
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    for argv in (
        ("eval", "-g", "theta", "-c", '{"e1":2,'),
        ("eval", "-g", "theta", "-c", '{"e1":2.7,"e2":2,"e3":2}'),
        ("eval", "-g", "theta", "-c", '{"e1":-2,"e2":2,"e3":2}'),
        ("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2,"e9":2}'),
        ("asymptote", "-g", "tetrahedron", "-c", tet_c, "--k-list", "10,x"),
        ("asymptote", "-g", "tetrahedron", "-c", tet_c, "--k-list", "0"),
        ("series", "-g", "theta", "--degree", "-1"),
        ("series", "-g", "theta", "--degree", "64"),
        ("integrate", "-g", "theta", "--target", "W", "--y", "e1=abc"),
        ("integrate", "-g", "theta", "--target", "W", "--y", "e1=nan"),
        ("integrate", "-g", "theta", "--target", "W", "--y", "e1=inf"),
        (*w_theta, "--y", "zz=0.1"),
        (*w_theta, "--y", "e1=0.5"),
        ("integrate", "-g", "theta", "-c", th_c, "--samples", "10000", "--workers", "-1"),
        # refused before any thread starts: a worker beyond the samples draws nothing
        ("integrate", "-g", "theta", "-c", th_c, "--samples", "10000", "--workers", "10001"),
        *(("eval", "-g", str(tmp_path / f"{name}.json"), "-c", th_c)
          for name in files if name.startswith("graph_")),
        *(("eval", "-g", "theta", "-c", th_c, "-H", str(tmp_path / f"{name}.json"))
          for name in ("hol_zero_den", "hol_zero_den_im")),
        *((*w_theta, "-H", str(tmp_path / f"{name}.json"))
          for name in files if name.startswith("hol_")),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--restarts", "-3"),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--restarts", "0"),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--tol", "nan"),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--tol", "inf"),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--tol", "0"),
        ("asymptote", "-g", "tetrahedron", "-c", tet_c, "--tol=-1e-10"),
        # refused by the parser itself (it does not read -1e-10 as a value)
        ("check", "-g", "tetrahedron", "-c", tet_c, "--tol", "-1e-10"),
        # a negative seed was a SeedSequence traceback (selftest: five FAIL lines)
        ("integrate", "-g", "theta", "-c", th_c, "--samples", "10000", "--seed=-1"),
        ("check", "-g", "tetrahedron", "-c", tet_c, "--seed=-1"),
        ("asymptote", "-g", "tetrahedron", "-c", tet_c, "--seed=-1"),
        ("selftest", "--seed=-1"),
        # the orthogonality relation integrates over every connection
        ("integrate", "-g", "theta", "-c", th_c, "--target", "orthogonality",
         "--samples", "10000", "-H", str(tmp_path / "hol_flip.json")),
        # inputs the target never reads: each exited 0
        (*w_theta, "-c", '{"e1":61,"e2":2,"e3":2}'),
        ("integrate", "-g", "theta", "-c", th_c, "--y", "e1=0.9", "--y", "zz=5",
         "--samples", "10000"),
        ("integrate", "-g", "theta", "-c", th_c, "--target", "orthogonality",
         "--y", "e1=0.1", "--samples", "10000"),
        ("eval", "-g", "theta", "--bogus"),
        ("definitely-not-a-command",),
    ):
        capsys.readouterr()
        rc, _ = run_cli(*argv)
        assert rc == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv
    # an orthogonality weight (colors 1000) or target (colors 870) that
    # underflows to 0.0: each printed a report of zeros
    for c in (1000, 870):
        capsys.readouterr()
        coloring = json.dumps(dict.fromkeys(("e1", "e2", "e3"), c))
        with pytest.warns(UserWarning, match="colors above 10"):
            rc, _ = run_cli("integrate", "-g", "theta", "-c", coloring,
                            "--target", "orthogonality", "--samples", "10000")
        assert rc == 2, c
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), (c, err)


# texts at or past the edge of an integer option, each malformed or out of
# range for at least one of them
_EDGE = ("0", "-1", "abc", "", "1e4")


def _int_option(lo, hi, *edge):
    """A small valid integer as text, or a text at the edge."""
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(_EDGE + edge))


@settings(max_examples=150, deadline=None)
# the two findings of this boundary: each was a traceback with exit 1
@example(target="bracket", colors=[2, 2, 2], samples="10000", seed="-1", workers=None,
         env_workers=None)
@example(target="W", colors=[2, 2, 2], samples="10000", seed=None, workers=None,
         env_workers="abc")
@given(target=st.sampled_from(("bracket", "W", "orthogonality")),
       colors=st.lists(st.integers(0, 10), min_size=3, max_size=3),
       # always given and small: nothing caps a valid sample count
       samples=_int_option(10_000, 20_000, "9999"),
       seed=st.one_of(st.none(), _int_option(0, 2 ** 64)),
       # "above" stands for one worker more than the samples
       workers=st.one_of(st.none(), _int_option(1, 8, "above")),
       env_workers=st.one_of(st.none(), _int_option(1, 8)))
def test_integrate_argument_boundary(target, colors, samples, seed, workers, env_workers):
    if workers == "above":
        workers = str(int(samples) + 1) if samples.isdigit() else "20001"
    argv = ["integrate", "-g", "theta", "--target", target, f"--samples={samples}"]
    if target == "W":
        argv += ["--y", "e1=0.3", "--y", "e2=0.2", "--y", "e3=0.1"]
    else:
        argv += ["-c", json.dumps(dict(zip(("e1", "e2", "e3"), colors)))]
    argv += [f"--{name}={value}" for name, value in (("seed", seed), ("workers", workers))
             if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("SPINNET_WORKERS", None)
        if env_workers is not None:
            os.environ["SPINNET_WORKERS"] = env_workers
        rc = dispatch(argv)
    assert rc in (0, 2), (argv, env_workers, rc)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), (argv, lines)
    else:
        assert json.loads(out.getvalue())["results"]["estimate"]["samples"] == int(samples)


_THETA_HALFEDGES = ("u1", "u2", "u3", "v1", "v2", "v3")
_BIG = 10 ** 400  # past the largest float
_BAD_CELLS = (True, None, {}, float("nan"), float("inf"), [float("nan"), 0], [1], [1, 2, 3],
              ["a", 1], [True, 0], _BIG, -_BIG, [_BIG, 0], "1/0", "abc", "1" * 5000, 1e308,
              2, 0.5)
_BAD_MATRICES = (5, "ab", [], [[1, 0]], [[1, 0, 0], [0, 1]], [[1, 0], [0]], {"a": 1}, None,
                 ["10", "01"], [[2, 0], [0, 1]], [[2.0, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]],
                 # det 1 with a cell beyond floating point; det inf - inf = nan
                 [[_BIG, 0], [0, f"1/{_BIG}"]], [[_BIG, 0.5], [0, 1]],
                 [[1e300, 1e300], [1e300, 1e300]])
_HOLONOMY_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_THETA_HALFEDGES)),
    st.tuples(st.just("unknown"), st.sampled_from(("zz", "u", "e1", ""))),
    st.tuples(st.just("matrix"), st.sampled_from(_THETA_HALFEDGES), st.sampled_from(_BAD_MATRICES)),
    st.tuples(st.just("cell"), st.sampled_from(_THETA_HALFEDGES), st.integers(0, 1),
              st.integers(0, 1), st.sampled_from(_BAD_CELLS)))
_HOLONOMY_COMMANDS = st.one_of(
    st.just(("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}')),
    st.builds(lambda d, check: ("series", "-g", "theta", "--degree", str(d)) + check,
              st.integers(0, 4), st.sampled_from(((), ("--check-against-eval",)))),
    st.just(("integrate", "-g", "theta", "--target", "W", "--samples", "10000",
             "--y", "e1=0.1", "--y", "e2=0.2", "--y", "e3=0.15")),
    st.just(("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}', "--samples", "10000")))


def _theta_holonomy(kind, seed):
    """A valid holonomy file's object on theta: Gaussian-rational exact,
    unitary exact, or the unitary one as [re, im] pairs."""
    graph = load_graph(bundled_graph_path("theta"))
    hol = (random_holonomy if kind == "gaussian" else random_unitary_holonomy)(graph, seed=seed)
    cell = exact_text if kind != "float" else lambda x: [complex(x).real, complex(x).imag]
    return {h: [[cell(x) for x in row] for row in m] for h, m in hol.entries.items()}


@settings(max_examples=100, deadline=None)
# each was an OverflowError traceback: a cell beyond floating point in a
# floating holonomy, and in an exact one that integrate converts; an exact
# holonomy whose value (eval's abs) or bracket square (integrate's target) is
# beyond floating point
@example(kind="float", seed=0, mutations=[("matrix", "u2", [[_BIG, 0.5], [0, 1]])], top=None,
         argv=("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}'))
@example(kind="unitary", seed=0, mutations=[("matrix", "u2", [[_BIG, 0], [0, f"1/{_BIG}"]])],
         top=None, argv=("integrate", "-g", "theta", "--target", "W", "--samples", "10000",
                         "--y", "e1=0.1", "--y", "e2=0.2", "--y", "e3=0.15"))
@example(kind="gaussian", seed=0, mutations=[("matrix", "u2", [[1, _BIG], [0, 1]])], top=None,
         argv=("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}'))
@example(kind="gaussian", seed=0, mutations=[("matrix", "u2", [[1, _BIG], [0, 1]])], top=None,
         argv=("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}', "--samples", "10000"))
@given(kind=st.sampled_from(("gaussian", "unitary", "float")), seed=st.integers(0, 2**16),
       mutations=st.lists(_HOLONOMY_MUTATIONS, min_size=1, max_size=3),
       top=st.one_of(st.none(), st.none(), st.sampled_from(([], 5, "x", None))),
       argv=_HOLONOMY_COMMANDS)
def test_mutated_holonomy_files(tmp_path_factory, kind, seed, mutations, top, argv):
    obj = _theta_holonomy(kind, seed)
    for op, h, *rest in mutations:
        if op == "drop":
            obj.pop(h, None)
        elif op == "unknown":
            obj[h] = [[1, 0], [0, 1]]
        elif op == "matrix":
            obj[h] = rest[0]
        elif isinstance(obj.get(h), list) and len(obj[h]) == 2 and isinstance(obj[h][rest[0]], list):
            row = obj[h][rest[0]]
            row[rest[1] % len(row)] = rest[2]
    path = tmp_path_factory.mktemp("holonomy") / "h.json"
    path.write_text(json.dumps(obj if top is None else top))
    argv = (*argv, "-H", str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(list(argv))
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("input error:"), (obj, argv, lines)


def test_integrate_checks_bracket_target_before_sampling(monkeypatch, capsys):
    import spinnets.cli

    def sample(*args):
        raise AssertionError("sampled before the exact target was checked")

    monkeypatch.setattr(spinnets.cli, "mc_bracket", sample)
    with pytest.warns(UserWarning, match="colors above 10"):
        rc, out = run_cli("integrate", "-g", "theta", "-c", '{"e1":61,"e2":61,"e3":2}',
                          "--samples", "10000")
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("input error:")


def test_bad_workers_variable_exits_2(monkeypatch, capsys):
    argv = ("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}', "--samples", "10000")
    for value in ("abc", "0", "2.5"):
        monkeypatch.setenv("SPINNET_WORKERS", value)
        capsys.readouterr()
        rc, out = run_cli(*argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and out == "", value
        assert len(err) == 1 and err[0].startswith("input error:"), value
    monkeypatch.setenv("SPINNET_WORKERS", "2")
    rc, out = run_cli(*argv)
    assert rc == 0 and json.loads(out)["results"]["workers"] == 2


def test_help_exits_0(capsys):
    rc, out = run_cli("check", "-h")
    assert rc == 0 and out.startswith("usage: spinnet check")
    assert capsys.readouterr().err == ""


def test_parser_built_once(monkeypatch):
    import argparse
    import spinnets.cli

    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        built.append(1)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    spinnets.cli._build_parser.cache_clear()
    for _ in range(2):
        rc, _ = run_cli("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}')
        assert rc == 0
    assert len(built) == 1


def test_eval_contracts_once(monkeypatch):
    import spinnets.cli
    import spinnets.evaluator

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (spinnets.cli, spinnets.evaluator):
        monkeypatch.setattr(mod, "eval_spin_network", counted(mod.eval_spin_network))
    rc, out = run_cli("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}')
    assert rc == 0
    assert json.loads(out)["results"]["bracket_square"] == "1"
    assert len(calls) == 1


def test_reports_are_deterministic():
    args = ("integrate", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}',
            "--samples", "20000", "--seed", "4", "--workers", "2")
    out1 = run_cli(*args)[1]
    out2 = run_cli(*args)[1]
    assert out1 == out2


@pytest.mark.parametrize("content", [b'{"e1": 2\xff}', b'\xef\xbb\xbf{}'], ids=["0xff", "bom"])
@pytest.mark.parametrize("flag", ["-g", "-H", "-c"])
def test_input_file_not_utf8_exits_2(tmp_path, capsys, flag, content):
    # a 0xff byte was a UnicodeDecodeError traceback; a UTF-8 byte-order
    # mark is refused too
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = {"-g": "theta", "-c": '{"e1":2,"e2":2,"e3":2}', "-H": None, flag: str(bad)}
    argv = ["eval"] + [x for f, v in args.items() if v for x in (f, v)]
    rc, out = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith(f"input error: {bad} is not"), err


def _theta_file(path, name):
    obj = json.loads(bundled_graph_path("theta").read_text())
    path.write_text(json.dumps({**obj, "name": name}))
    return str(path)


def test_user_graph_file_read_again_each_dispatch(tmp_path):
    reports = []
    for name in ("first", "second"):
        gpath = _theta_file(tmp_path / "g.json", name)
        rc, out = run_cli("eval", "-g", gpath, "-c", '{"e1":2,"e2":2,"e3":2}')
        assert rc == 0
        reports.append(json.loads(out))
    assert [r["results"]["graph"] for r in reports] == ["first", "second"]
    assert reports[0]["inputs"]["graph"] != reports[1]["inputs"]["graph"]


def _graph_state(graph):
    maps = ("vertex_index", "vertex_of", "halfedge_slot", "edge_index", "edge_by_id",
            "edge_of", "_angles_at")
    return graph_obj(graph), {m: dict(getattr(graph, m)) for m in maps}


def test_commands_leave_the_bundled_graph_unchanged():
    import spinnets.cli

    graph = spinnets.cli._bundled("tetrahedron")[0]
    before = _graph_state(graph)
    col = '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}'
    tet = ("-g", "tetrahedron")
    for argv in (("eval", *tet, "-c", col),
                 ("series", *tet, "--degree", "4", "--check-against-eval"),
                 ("series", *tet, "--degree", "4", "--method", "curves"),
                 ("integrate", *tet, "-c", col, "--samples", "10000"),
                 ("integrate", *tet, "-c", col, "--samples", "10000",
                  "--target", "orthogonality"),
                 ("integrate", *tet, "--target", "W", "--samples", "10000",
                  *(x for e in ("ab", "ac", "ad", "bc", "bd", "cd") for x in ("--y", f"{e}=0.1"))),
                 ("check", *tet, "-c", col, "--restarts", "40"),
                 ("asymptote", *tet, "-c", col, "--restarts", "40")):
        rc, _ = run_cli(*argv)
        assert rc == 0, argv
        assert spinnets.cli._bundled("tetrahedron")[0] is graph
        assert _graph_state(graph) == before, argv


def test_each_input_file_opened_once_per_dispatch(tmp_path, monkeypatch):
    import builtins

    gpath = _theta_file(tmp_path / "g.json", "theta")
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({h: [[1, 0], [0, 1]]
                                 for h in ("u1", "u2", "u3", "v1", "v2", "v3")}))
    cpath = tmp_path / "c.json"
    cpath.write_text('{"e1":2,"e2":2,"e3":2}')
    opened = []
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    for n in (1, 2):
        rc, _ = run_cli("eval", "-g", gpath, "-H", str(hpath), "-c", str(cpath))
        assert rc == 0
        assert [opened.count(str(p)) for p in (gpath, hpath, cpath)] == [n, n, n]


def test_eval_reads_admissibility_once(monkeypatch, capsys):
    # eval ran is_admissible three times: in eval_spin_network, for the
    # report's admissible field and in bracket_square; the evaluator now reads
    # admissibility from its angle colors, and the report reuses one call
    import spinnets
    import spinnets.cli
    import spinnets.evaluator
    import spinnets.graphs

    calls = []
    real = spinnets.graphs.is_admissible

    def counted(graph, coloring):
        calls.append(dict(coloring))
        return real(graph, coloring)

    for module in (spinnets, spinnets.cli, spinnets.evaluator, spinnets.graphs):
        monkeypatch.setattr(module, "is_admissible", counted)
    for graph, coloring, admissible in (("theta", {"e1": 2, "e2": 2, "e3": 2}, True),
                                        ("theta", {"e1": 1, "e2": 1, "e3": 1}, False),
                                        ("tetrahedron", TET_C, True)):
        calls.clear()
        rc, out = run_cli("eval", "-g", graph, "-c", json.dumps(coloring))
        results = json.loads(out)["results"]
        assert rc == 0 and calls == [coloring]
        assert results["admissible"] is admissible
        assert (results["bracket_square"] == "0") is not admissible
    # a direct library call keeps its own checks
    calls.clear()
    theta = load_graph(bundled_graph_path("theta"))
    assert spinnets.evaluator.bracket_square(theta, {"e1": 2, "e2": 2, "e3": 2}) == 1
    assert len(calls) == 1


_COLORING_GRAPHS = {"theta": ("e1", "e2", "e3"),
                    "tetrahedron": tuple(TET_C),
                    "prism3": ("t12", "t23", "t13", "b12", "b23", "b13", "s1", "s2", "s3")}
_BAD_COLORS = (-1, 59, 60, 61, 64, 2 ** 63, 10 ** 30, -10 ** 30, 2.0, 2.5, "2", True, False,
               None, [], {}, [2], float("nan"), float("inf"), 1e308)
_COLORING_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 8)),
    st.tuples(st.just("unknown"), st.sampled_from(("zz", "", "u", "E1", "e1 "))),
    st.tuples(st.just("value"), st.integers(0, 8), st.sampled_from(_BAD_COLORS)),
    st.tuples(st.just("odd"), st.integers(0, 8)))


def _mutated_coloring(obj, mutations) -> dict:
    """The coloring obj with the mutations applied, in place."""
    for op, *rest in mutations:
        if op == "unknown":
            obj[rest[0]] = 2
        elif obj:
            e = list(obj)[rest[0] % len(obj)]
            if op == "drop":
                del obj[e]
            elif op == "value":
                obj[e] = rest[1]
            elif isinstance(obj[e], int):
                obj[e] += 1
    return obj


@settings(max_examples=120, deadline=None)
@given(graph=st.sampled_from(sorted(_COLORING_GRAPHS)), colors=st.lists(st.integers(0, 3),
       min_size=9, max_size=9), mutations=st.lists(_COLORING_MUTATIONS, max_size=3),
       top=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(([], 5, "x", None, [TET_C]))),
       text=st.sampled_from(("json", "json", "truncated", "duplicate", "file")))
def test_mutated_coloring_json(tmp_path_factory, graph, colors, mutations, top, text):
    """eval on a coloring of a bundled graph, with dropped keys, unknown
    keys, values of the wrong type or past the bounds, odd vertex sums, a
    top level that is no object, truncated or duplicate-key JSON text, inline
    or in a file: the exit code is 0, 1 or 2, nothing escapes dispatch, exit 2
    comes with exactly one input error line, and an exit-0 report is
    consistent about admissibility.  eval warns about nothing, so the
    suite's error filter for warnings stands."""
    obj = _mutated_coloring(dict(zip(_COLORING_GRAPHS[graph], colors)), mutations)
    doc = json.dumps(obj if top is None else top)
    if text == "truncated":
        doc = doc[:-1]
    elif text == "duplicate" and obj and top is None:
        doc = doc[:-1] + f', "{list(obj)[0]}": 1}}'
    if text == "file":
        path = tmp_path_factory.mktemp("coloring") / "c.json"
        path.write_text(doc)
        doc = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(["eval", "-g", graph, "-c", doc])
    lines = err.getvalue().splitlines()
    event(f"exit {rc}")
    assert rc in (0, 1, 2), (doc, rc)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("input error:"), (doc, lines)
        assert out.getvalue() == ""
    elif rc == 0:
        results = json.loads(out.getvalue())["results"]
        if not results["admissible"]:
            assert results["value"] == {"re": "0", "im": "0"}, doc
            assert results["bracket_square"] == "0", doc


# stands for an integer literal past int()'s 4300 digits, which json.dumps
# cannot write: _graph_text puts the literal in its place
_LONG_INT_MARK = "<a 5001-digit integer>"
_GRAPH_VALUES = (5, 2.5, None, True, "", "x", [], {}, ["v0"], {"id": "v0"}, 2 ** 63, -10 ** 30,
                 10 ** 400, _LONG_INT_MARK)
_GRAPH_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("value"), st.integers(0, 99), st.sampled_from(_GRAPH_VALUES)),
    st.tuples(st.just("duplicate"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("crossing"), st.sampled_from(
        (["e0", "zz"], ["zz", "yy"], ["e0", "e0"], ["e0"], ["e0", "e1", "e2"], ["e0", "v0"],
         ["e0", "h0"], ["e0", "e1"], ["e1", "e0"], "e0", [10 ** 30, "e0"]))))


def _graph_slots(obj):
    """(container, key) of every value in a graph object: its top-level keys,
    each vertex's and edge's keys, half-edge slots and crossing entries."""
    slots = [(obj, k) for k in obj]
    for part in ("vertices", "edges", "crossings"):
        for entry in obj.get(part) if isinstance(obj.get(part), list) else ():
            if isinstance(entry, dict):
                slots += [(entry, k) for k in entry]
                entry = entry.get("halfedges")
            if isinstance(entry, list):
                slots += [(entry, i) for i in range(len(entry))]
    return slots


def _graph_text(graph, mutations, top) -> str:
    """The JSON text of graph's object with the mutations applied, or of top
    in its place when top is not None."""
    obj = copy.deepcopy(graph_obj(graph))
    for op, *rest in mutations:
        slots = _graph_slots(obj)
        if op == "crossing":
            if not isinstance(obj.get("crossings"), list):
                obj["crossings"] = []
            obj["crossings"].append(copy.deepcopy(rest[0]))
        elif slots:
            where, key = slots[rest[0] % len(slots)]
            if op == "drop":
                del where[key]
            elif op == "value":
                where[key] = rest[1]
            else:
                there, other = slots[rest[1] % len(slots)]
                where[key] = copy.deepcopy(there[other])
    return json.dumps(obj if top is None else top).replace(
        json.dumps(_LONG_INT_MARK), "1" + "0" * 5000)


@settings(max_examples=100, deadline=None)
@given(graph=presentations(4), mutations=st.lists(_GRAPH_MUTATIONS, min_size=1, max_size=3),
       top=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(([], 5, "x", None))))
def test_mutated_graph_json(tmp_path_factory, graph, mutations, top):
    """eval on a random presentation's graph file with dropped keys, values
    of the wrong type, huge integers, duplicate ids and crossings that name
    unknown edges: the exit code is 0, 1 or 2, nothing escapes dispatch, and
    exit 2 comes with exactly one input error line."""
    text = _graph_text(graph, mutations, top)
    path = tmp_path_factory.mktemp("graph") / "g.json"
    path.write_text(text)
    coloring = json.dumps(dict.fromkeys(graph.edge_ids, 2))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(["eval", "-g", str(path), "-c", coloring])
    lines = err.getvalue().splitlines()
    event(f"exit {rc}")
    assert rc in (0, 1, 2), (text, rc)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("input error:"), (text, lines)
        assert out.getvalue() == ""


_BOUNDARY_COMMANDS = st.one_of(
    st.builds(lambda d, method, check: ("series", "--degree", str(d), "--method", method) + check,
              st.integers(0, 4), st.sampled_from(("det", "westbury", "curves", "pfaffian")),
              st.sampled_from(((), ("--check-against-eval",)))),
    st.builds(lambda r: ("check", "--restarts", str(r)), st.integers(1, 3)),
    st.builds(lambda r, report: ("asymptote", "--restarts", str(r), "--k-list", "10,20",
                                 "--report", report),
              st.integers(1, 3), st.sampled_from(("json", "csv"))))


@settings(max_examples=100, deadline=None)
@given(graph=presentations(4), graph_mutations=st.lists(_GRAPH_MUTATIONS, max_size=3),
       coloring_mutations=st.lists(_COLORING_MUTATIONS, max_size=2),
       top=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(([], 5, "x", None))),
       command=_BOUNDARY_COMMANDS)
def test_mutated_inputs_through_series_check_and_asymptote(tmp_path_factory, graph,
                                                           graph_mutations, coloring_mutations,
                                                           top, command):
    """series, check and asymptote on a random presentation's graph file and
    an all-2 coloring, each mutated as in the eval tests above: the exit code
    is 0, 1 or 2, nothing escapes dispatch, and exit 2 comes with exactly one
    input error line.  The configuration search's warnings about a thin
    restart budget are expected at 3 restarts; they are caught here, and any
    other warning fails the test."""
    text = _graph_text(graph, graph_mutations, top)
    path = tmp_path_factory.mktemp("graph") / "g.json"
    path.write_text(text)
    argv = [command[0], "-g", str(path), *command[1:]]
    if command[0] != "series":
        coloring = _mutated_coloring(dict.fromkeys(graph.edge_ids, 2), coloring_mutations)
        argv += ["-c", json.dumps(coloring)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = dispatch(argv)
    assert all(str(w.message).startswith("find_configs:") for w in caught), caught
    lines = err.getvalue().splitlines()
    event(f"{command[0]} exit {rc}")
    assert rc in (0, 1, 2), (text, argv, rc)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("input error:"), (text, argv, lines)
        assert out.getvalue() == ""


def test_digest_is_of_the_parsed_bytes(tmp_path, monkeypatch):
    # a graph file that changes between two reads: the reported digest must
    # be of the bytes the graph was parsed from
    import builtins
    import hashlib

    versions = []
    for name in ("one", "two"):
        _theta_file(tmp_path / "g.json", name)
        versions.append((tmp_path / "g.json").read_bytes())
    gpath = str(tmp_path / "g.json")
    real_open = builtins.open
    reads = []

    def changing(file, mode="r", *args, **kwargs):
        if str(file) != gpath:
            return real_open(file, mode, *args, **kwargs)
        data = versions[min(len(reads), 1)]
        reads.append(data)
        return io.BytesIO(data) if "b" in mode else io.StringIO(data.decode())

    monkeypatch.setattr(builtins, "open", changing)
    col = '{"e1":2,"e2":2,"e3":2}'
    rep = json.loads(run_cli("eval", "-g", gpath, "-c", col)[1])
    parsed = versions[["one", "two"].index(rep["results"]["graph"])]
    assert rep["inputs"]["graph"] == hashlib.sha256(parsed).hexdigest()[:16]
    rep = json.loads(run_cli("eval", "-g", "theta", "-c", col)[1])
    bundled = bundled_graph_path("theta").read_bytes()
    assert rep["inputs"]["graph"] == hashlib.sha256(bundled).hexdigest()[:16]


_LONG_INT = "1" * 5000  # past the 4300 digits that int() converts


@pytest.mark.parametrize("where", ["file", "inline"])
@pytest.mark.parametrize("text", [
    # each was a ValueError or RecursionError traceback
    '{"e1":' + _LONG_INT + ',"e2":2,"e3":2}',
    '{"e1":' + "[" * 100_000,
], ids=["long-int", "deep"])
def test_unreadable_json_value_exits_2(tmp_path, capsys, where, text):
    spec = text
    if where == "file":
        spec = str(tmp_path / "c.json")
        (tmp_path / "c.json").write_text(text)
    rc, out = run_cli("eval", "-g", "theta", "-c", spec)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("input error:"), err


def test_long_holonomy_scalar_exits_2(tmp_path, capsys):
    # an exact scalar string with more digits than int() converts
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({h: [[1, 0], [0, 1]] for h in ("u2", "u3", "v1", "v2", "v3")}
                                | {"u1": [[_LONG_INT, 0], [0, 1]]}))
    rc, out = run_cli("eval", "-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}', "-H", str(hpath))
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("input error: exact scalar"), err


@pytest.mark.parametrize("name", [[float("nan"), 1e400], None, 7, {"a": "b"}])
def test_graph_name_must_be_a_string(tmp_path, capsys, name):
    # the report echoes the name: [NaN, 1e400] printed NaN and Infinity,
    # which are not JSON, with exit 0
    gpath = _theta_file(tmp_path / "g.json", name)
    rc, out = run_cli("eval", "-g", gpath, "-c", '{"e1":2,"e2":2,"e3":2}')
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("input error: graph name"), err


def _emitted(obj) -> str:
    """The text _emit prints for obj."""
    from spinnets.cli import _emit

    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit(obj)
    return buf.getvalue()


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\/  é€😀')),
                max_size=6)
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60), _TEXT,
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308,
                     np.float64(-0.0), np.float64("nan"), 1e16, 123456789.0123]))
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_REPORTS)
def test_report_writer_matches_json(obj):
    assert _emitted(obj) == report_text(obj) + "\n"


_NAMES = st.text(st.one_of(st.characters(), st.sampled_from('az"\\é\x7f\x01€😀')), max_size=4)
_PARTS = st.integers(-10**30, 10**30) | st.fractions()
_COEFFS = st.one_of(
    st.integers(-10**30, 10**30), st.fractions(),
    st.builds(QQi, _PARTS, _PARTS)).filter(bool)


@st.composite
def _mpolys(draw):
    ns = Namespace(draw(st.lists(_NAMES, max_size=4, unique=True)))
    exps = st.fixed_dictionaries({n: st.integers(0, MAX_EXPONENT) for n in ns.names})
    keys = st.one_of(st.just(0), exps.map(ns.encode))
    return MPoly(ns, draw(st.dictionaries(keys, _COEFFS, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.one_of(_mpolys(), _REPORT_LEAVES),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(_TEXT, kids, max_size=3)),
    max_leaves=8))
def test_polynomial_writer_matches_term_list(obj):
    assert _emitted(obj) == report_text(obj) + "\n"


def test_series_names_sort_by_raw_text(tmp_path):
    # raw, "z:01" sorts before 'é"x:01'; escaped, '\u00e9\"x:01' sorts first
    rename = {"u": 'é"x', "v": "z"}
    obj = json.loads(bundled_graph_path("theta").read_text())
    obj["vertices"] = [{**v, "id": rename[v["id"]]} for v in obj["vertices"]]
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(obj))
    rc, out = run_cli("series", "-g", str(gpath), "--degree", "4")
    assert rc == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    _, plain = run_cli("series", "-g", "theta", "--degree", "4")
    renamed = [{**t, "exponents": {rename[a[0]] + a[1:]: e for a, e in t["exponents"].items()}}
               for t in json.loads(plain)["results"]["series"]["terms"]]
    assert json.loads(out)["results"]["series"]["terms"] == renamed


def test_report_writer_raises_type_error():
    # json.dumps would coerce a non-str key; no report has one
    for obj in ({1: 2}, {"a": {None: 1}}, {"a": object()}, [np.int64(3)]):
        with pytest.raises(TypeError):
            _emitted(obj)


def test_report_text_of_every_subcommand(monkeypatch):
    import spinnets.cli

    emitted = []
    emit = spinnets.cli._emit

    def recording(obj):
        emitted.append(obj)
        emit(obj)

    monkeypatch.setattr(spinnets.cli, "_emit", recording)
    th = ("-g", "theta", "-c", '{"e1":2,"e2":2,"e3":2}')
    tet = ("-g", "tetrahedron", "-c", '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}')
    runs = [("eval", *th),
            *(("series", "-g", "tetrahedron_nonplanar", "--degree", "4", "--method", m)
              for m in ("det", "westbury", "curves", "pfaffian")),
            ("series", "-g", "tetrahedron", "--degree", "4", "--check-against-eval"),
            ("integrate", *th, "--samples", "10000"),
            ("integrate", *th, "--samples", "10000", "--target", "orthogonality"),
            ("integrate", "-g", "theta", "--samples", "10000", "--target", "W",
             "--y", "e1=0.3", "--y", "e2=0.2", "--y", "e3=0.1"),
            ("check", *tet, "--restarts", "40"),
            ("asymptote", *tet, "--restarts", "40")]
    for argv in runs:
        rc, out = run_cli(*argv)
        assert rc == 0, argv
        assert len(emitted) == 1, argv
        assert out == report_text(emitted.pop()) + "\n", argv
