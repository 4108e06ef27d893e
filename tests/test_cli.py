import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinnets import bundled_graph_path
from spinnets.cli import dispatch


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
