"""Hash the outputs of a declared command set, run through one checkout.

    python tests/compare_outputs.py CHECKOUT > outputs.txt

Runs each command in process through CHECKOUT's `spinnets.cli.dispatch`
and prints one line per command: its exit code, the sha256 of its stdout
plus its stderr less the `elapsed_ms` line, and its argv.  Input files go
to a temporary directory, whose path reads as $TMP in the hashed text and
in the argv, so `diff` of two checkouts' printouts lists exactly the
commands whose output changed.  The set, each command once:

- every job of the three benchmark workloads at seeds 1-3, as
  CHECKOUT's `perfbench/workloads.build` writes them;
- `series` by all four methods on the bundled graphs at degrees 0-8, with
  and without `--check-against-eval`;
- the same at degrees 0-6 on four graph files with features no bundled
  graph has: `prism_graph(4)`, the dumbbell (two loops),
  `random_presentation(6, 601)` (a multi-edge, genus 1) and
  `random_presentation(8, 801)` (a loop, two multi-edges, genus 1), the
  test helpers of `conftest`;
- `eval` on every admissible coloring of total <= 8 of each bundled graph,
  with no holonomy file, with a seeded exact SL(2) one and with the
  identity one;
- `series` by all four methods on the bundled graphs at degrees 0-8 with
  the identity holonomy file, with and without `--check-against-eval`;
- `check` and `asymptote` on the tetrahedron, colored all 2 and
  (3, 4, 3, 3, 4, 3), at seeds 3 and 5 and 30 and 200 restarts, and
  `check` on prism3 colored all 2;
- `selftest`.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from conftest import DUMBBELL, graph_obj, prism_graph, random_presentation  # noqa: E402
from spinnets.cli import _BUNDLED, _bundled, dispatch  # noqa: E402
from spinnets.graphs import admissible_colorings  # noqa: E402


def commands(tmp: Path) -> list:
    """The declared argv lists, in order, input files written under tmp."""
    out = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            where = tmp / f"{name}-{seed}"
            where.mkdir()
            out += [job.argv for job in workloads.build(name, ROOT, where, seed, "full", dispatch)]
    files = {"prism4": graph_obj(prism_graph(4)), "dumbbell": DUMBBELL,
             "random6": graph_obj(random_presentation(6, 601)),
             "random8": graph_obj(random_presentation(8, 801))}
    for name, obj in files.items():
        (tmp / f"{name}.json").write_text(json.dumps(obj))
    series = [(graph, 9) for graph in _BUNDLED] + [(str(tmp / f"{name}.json"), 7) for name in files]
    for graph, degrees in series:
        for method in ("det", "westbury", "curves", "pfaffian"):
            for degree in range(degrees):
                argv = ["series", "-g", graph, "--degree", str(degree), "--method", method]
                out += [argv, argv + ["--check-against-eval"]]
    for graph in _BUNDLED:
        sl2, identity = tmp / f"{graph}-sl2.json", tmp / f"{graph}-identity.json"
        sl2.write_text(json.dumps(workloads.gauged_sl2_holonomy(
            oracle.graph_json(ROOT, graph), random.Random(f"compare/{graph}"))))
        halfedges = _bundled(graph)[0].halfedges
        identity.write_text(json.dumps(dict.fromkeys(halfedges, [["1", "0"], ["0", "1"]])))
        for col in admissible_colorings(_bundled(graph)[0], max_total=8):
            argv = ["eval", "-g", graph, "-c", json.dumps(col)]
            out += [argv, argv + ["-H", str(sl2)], argv + ["-H", str(identity)]]
        for method in ("det", "westbury", "curves", "pfaffian"):
            for degree in range(9):
                argv = ["series", "-g", graph, "--degree", str(degree), "--method", method,
                        "-H", str(identity)]
                out += [argv, argv + ["--check-against-eval"]]
    tet = _bundled("tetrahedron")[0].edge_ids
    for colors in ((2,) * 6, (3, 4, 3, 3, 4, 3)):
        col = json.dumps(dict(zip(tet, colors)))
        for cmd in ("check", "asymptote"):
            for seed in ("3", "5"):
                for restarts in ("30", "200"):
                    out.append([cmd, "-g", "tetrahedron", "-c", col, "--seed", seed,
                                "--restarts", restarts])
    prism = _bundled("prism3")[0].edge_ids
    out.append(["check", "-g", "prism3", "-c", json.dumps(dict.fromkeys(prism, 2))])
    out.append(["selftest"])
    return list(map(list, dict.fromkeys(map(tuple, out))))


def run(argv) -> tuple:
    """(exit code, stdout, stderr less its elapsed_ms line) of one command,
    every warning it raises shown, as in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        rc = dispatch(argv)
    lines = err.getvalue().splitlines(keepends=True)
    return rc, out.getvalue(), "".join(s for s in lines if not s.startswith("elapsed_ms="))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        for argv in cmds:
            rc, out, err = run(argv)
            text = (out + err).replace(tmp, "$TMP")
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(rc, digest, " ".join(argv).replace(tmp, "$TMP"), flush=True)
    print(f"{len(cmds)} commands", file=sys.stderr)


if __name__ == "__main__":
    main()
