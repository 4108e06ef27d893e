import io
import json
from contextlib import redirect_stdout

import pytest

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


def test_eval_bundled_coloring_file(tmp_path):
    from spinnets import bundled_graph_path

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
    rc, out = run_cli("series", "-g", "tetrahedron", "--degree", "4",
                      "--method", "det", "--check-against-eval")
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["sign_fixed"] is True
    assert rep["results"]["check_all_equal"] is True


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


def test_input_errors_exit_2(tmp_path, capsys):
    rc, _ = run_cli("eval", "-g", "no_such_file.json", "-c", "{}")
    assert rc == 2
    rc, _ = run_cli("eval", "-g", "theta", "-c", '{"e1":1}')
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run_cli("eval", "-g", str(bad), "-c", "{}")
    assert rc == 2
    rc, _ = run_cli("definitely-not-a-command")
    assert rc == 2
    tet_c = '{"ab":2,"ac":2,"ad":2,"bc":2,"bd":2,"cd":2}'
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
    ):
        capsys.readouterr()
        rc, _ = run_cli(*argv)
        assert rc == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv


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
