"""Seeded inputs, job lists and output checks for the three workloads.

exact-sweep  `spinnet eval` on a systematic sample of admissible colorings
             (tetrahedron up to color 6, prism3 up to color 4): the exact
             contraction layers in two regimes, many small contractions and
             a heavy high-color tail.
series-deep  `spinnet series`: a few large truncated products through
             `mul_trunc`, with trivial and complex exact holonomies.
numeric      `spinnet integrate` and `spinnet asymptote`: Haar sampling,
             character kernels and the Levenberg-Marquardt search.

A job is one `spinnet` command line.  Its check raises CheckError when the
output is wrong; references that need the library (a second series route, an
exact evaluation) are computed outside the timed passes and cached.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from spinnets.rational import QQi

WORKLOADS = ("exact-sweep", "series-deep", "numeric")

# job kinds, used for the per-path metrics
EVAL = "eval"
SERIES_TRIVIAL = "series_trivial"
SERIES_HOLONOMY = "series_holonomy"
MC_INNER = "mc_inner"        # trivial holonomy: quaternion inner products
MC_MATRIX = "mc_matrix"      # holonomy or orthogonality: SU(2) matrix products
ASYMPTOTE = "asymptote"

FULL = {
    "eval_samples": (("tetrahedron", 6, 100), ("prism3", 4, 100)),
    "theta_det_degree": 24, "theta_holonomy_degree": 16, "check_degree": 8,
    "prism_degree": 12, "mc_samples": 1_000_000, "mc_matrix_samples": 100_000,
    "restarts": 50,
}
TINY = {
    "eval_samples": (("tetrahedron", 4, 12), ("prism3", 2, 12)),
    "theta_det_degree": 8, "theta_holonomy_degree": 6, "check_degree": 4,
    "prism_degree": 6, "mc_samples": 10_000, "mc_matrix_samples": 10_000,
    "restarts": 60,
}
SCALES = {"full": FULL, "tiny": TINY}

MC_SIGMAS = 5        # a 3-sigma bound fails ~1 correct job in 370
ASYMPTOTE_REL_TOL = 0.15


class CheckError(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    argv: list
    kind: str
    check: Callable[[dict], None]
    samples: int = 0


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


DISCARD = _Discard()


def run_cli(dispatch, argv):
    """Run one `spinnet` command in-process: (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(DISCARD):
        rc = dispatch(argv)
    return rc, buf.getvalue()


def _require(cond, what):
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _exact(z: Fraction, w: Fraction) -> str:
    """Exact scalar string "p/q+r/s i" as the holonomy format reads it."""
    return f"{z}{'+' if w >= 0 else ''}{w} i"


def _mat(a, b, c, d):
    return [[_exact(*a), _exact(*b)], [_exact(*c), _exact(*d)]]


def complex_sl2(rng: random.Random):
    """[[1+xy, x], [y, 1]] with x = (+-1 +- i)/2 and y = (+-2 +- i)/3: two
    shears with Gaussian-rational entries."""
    def sign():
        return rng.choice((-1, 1))
    x = QQi(Fraction(sign(), 2), Fraction(sign(), 2))
    y = QQi(Fraction(2 * sign(), 3), Fraction(sign(), 3))
    return ((QQi(1) + x * y, x), (y, QQi(1)))


# unit monomial SL(2) elements: diag(i^k, i^-k) and [[0, 1], [-1, 0]] times it
_I = QQi(0, 1)
_UNITS = (QQi(1), _I, QQi(-1), -_I)
MONOMIAL = [((u, QQi(0)), (QQi(0), _UNITS[-k % 4])) for k, u in enumerate(_UNITS)]
MONOMIAL += [((QQi(0), u), (-_UNITS[-k % 4], QQi(0))) for k, u in enumerate(_UNITS)]


def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inv(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def gauged_sl2_holonomy(graph: dict, rng: random.Random | None) -> dict:
    """A fixed complex SL(2) holonomy, gauge-transformed by seeded unit
    monomial elements g_e (per edge) and g_v (per vertex): psi_h becomes
    g_e psi_h g_v^-1.  Gauge leaves every evaluation, and so the series,
    unchanged, and unit entries keep coefficient heights, so each seed gives
    different input files for the same amount of arithmetic.  Without rng
    the fixed holonomy itself is returned."""
    base = random.Random(f"{graph['name']}/holonomy")
    g_v = {v["id"]: rng.choice(MONOMIAL) if rng else MONOMIAL[0] for v in graph["vertices"]}
    g_e = {e["id"]: rng.choice(MONOMIAL) if rng else MONOMIAL[0] for e in graph["edges"]}
    edge_of = {}
    for e in graph["edges"]:
        edge_of[e["left"]] = edge_of[e["right"]] = e["id"]
    out = {}
    for v in graph["vertices"]:
        for h in v["halfedges"]:
            m = _mul(_mul(g_e[edge_of[h]], complex_sl2(base)), _inv(g_v[v["id"]]))
            out[h] = [[_exact(z.re, z.im) for z in row] for row in m]
    return out


def rational_su2(rng: random.Random):
    """p^2/|p|^2 for an integer quaternion p is an exact unit quaternion
    (w, x, y, z); its SU(2) matrix [[w - iz, -y - ix], [y - ix, w + iz]] is
    exactly unitary with determinant 1."""
    while True:
        p = [rng.randint(-3, 3) for _ in range(4)]
        if any(p[1:]):  # a real p would give the identity
            break
    a, b, c, d = p
    n = a * a + b * b + c * c + d * d
    w, x, y, z = (Fraction(v, n) for v in (a * a - b * b - c * c - d * d, 2 * a * b, 2 * a * c, 2 * a * d))
    return _mat((w, -z), (-y, -x), (y, -x), (w, z))


def admissible_colorings(graph: dict, max_color: int):
    """Every coloring (in edge order) that is admissible at each vertex."""
    edges = [e["id"] for e in graph["edges"]]
    triples = oracle.vertex_triples(graph)
    # color edges vertex by vertex, so each vertex is checked as soon as its
    # last edge has a color
    order = list(dict.fromkeys(e for t in triples for e in t))
    pos = {e: i for i, e in enumerate(order)}
    ready = [[] for _ in order]
    for t in triples:
        idx = tuple(pos[e] for e in t)
        ready[max(idx)].append(idx)
    out, cur = [], [0] * len(order)
    back = [pos[e] for e in edges]

    def rec(i):
        if i == len(order):
            out.append(tuple(cur[j] for j in back))
            return
        for c in range(max_color + 1):
            cur[i] = c
            if all(oracle.admissible_triple(*(cur[j] for j in t)) for t in ready[i]):
                rec(i + 1)

    rec(0)
    return edges, out


def factor_terms(triples, col):
    """Terms in the product of the vertex factors (Z_i W_j - Z_j W_i)^n that
    the evaluator contracts: a proxy for the cost of one evaluation."""
    terms = 1
    for t in triples:
        a, b, c = (col[e] for e in t)
        for n in ((a + b - c) // 2, (b + c - a) // 2, (a + c - b) // 2):
            terms *= n + 1
    return terms


def systematic_sample(population, n, rng):
    """n items at a fixed stride from a random offset.  The population is
    sorted by cost proxy, so every sample has the same cost profile."""
    step = len(population) / n
    off = rng.random() * step
    return [population[int(off + i * step)] for i in range(n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def exact_sweep(root, tmp, rng, cfg, dispatch):
    jobs = []
    prism_table = None
    for gname, max_color, n in cfg["eval_samples"]:
        graph = oracle.graph_json(root, gname)
        triples = oracle.vertex_triples(graph)
        edges, population = admissible_colorings(graph, max_color)
        population.sort(key=lambda c: (factor_terms(triples, dict(zip(edges, c))), c))
        if gname == "prism3":
            table_edges, prism_table = oracle.load_prism3_table()
            if table_edges != edges:
                raise CheckError("prism3 reference table has another edge order")
        for colors in systematic_sample(population, n, rng):
            col = dict(zip(edges, colors))
            if gname == "tetrahedron":
                value = oracle.tetrahedron_value(col)
            else:
                value = prism_table[colors]
            path = _write_json(tmp / f"c{len(jobs):04d}.json", col)
            jobs.append(Job(["eval", "-g", gname, "-c", path], EVAL,
                            _eval_check(gname, col, value, triples)))
    rng.shuffle(jobs)
    return jobs


def _eval_check(gname, col, value, triples):
    def check(out):
        res = out["results"]
        _require(res["graph"] == gname and res["coloring"] == col, "echoed input differs")
        _require(res["admissible"] is True, "admissible coloring reported inadmissible")
        _require(res["value"] == {"re": str(value), "im": "0"},
                 f"value {res['value']} != {value}")
        _require(Fraction(res["bracket_square"]) == oracle.bracket(triples, col, value),
                 "bracket_square differs from |value|^2 / theta norms")
    return check


def _series_obj(out):
    return out["results"]["series"]


def series_deep(root, tmp, rng, cfg, dispatch):
    refs: dict = {}

    def ref(argv):
        key = tuple(argv)
        if key not in refs:
            rc, text = run_cli(dispatch, argv)
            _require(rc == 0, f"reference {' '.join(argv)} exited {rc}")
            refs[key] = json.loads(text)
        return refs[key]

    def header(out, graph, degree):
        res = out["results"]
        _require(res["graph"] == graph and res["degree"] == degree, "echoed input differs")
        _require(res["series"]["degree"] == degree, "series degree differs")

    def equal_to(graph, degree, argv_list):
        def check(out):
            header(out, graph, degree)
            for argv in argv_list:
                _require(_series_obj(out) == _series_obj(ref(argv)),
                         f"series differs from {' '.join(argv)}")
        return check

    def checked_against_eval(graph, degree):
        def check(out):
            header(out, graph, degree)
            res = out["results"]
            _require(res.get("check") and res["check_all_equal"] is True,
                     "series coefficients differ from exact evaluations")
        return check

    def gauge_checked(graph, degree, low, low_argv, ungauged_argv):
        """Checking every coefficient against an evaluation costs far more
        than the job.  The series must equal the one for the ungauged
        holonomy (evaluations are gauge invariant), and its terms up to
        degree `low` must equal a series checked against evaluations."""
        def check(out):
            header(out, graph, degree)
            _require(_series_obj(out) == _series_obj(ref(ungauged_argv)),
                     "series differs from the one for the ungauged holonomy")
            r = ref(low_argv)["results"]
            _require(r["check_all_equal"] is True, "reference check against eval failed")
            terms = [t for t in _series_obj(out)["terms"] if sum(t["exponents"].values()) <= low]
            _require(terms == r["series"]["terms"], f"terms up to degree {low} differ")
        return check

    theta, tet = (oracle.graph_json(root, g) for g in ("theta", "tetrahedron"))
    theta_h = _write_json(tmp / "theta_sl2.json", gauged_sl2_holonomy(theta, rng))
    theta_h0 = _write_json(tmp / "theta_sl2_ungauged.json", gauged_sl2_holonomy(theta, None))
    tet_h = _write_json(tmp / "tetrahedron_sl2.json", gauged_sl2_holonomy(tet, rng))
    d_det, d_hol = cfg["theta_det_degree"], cfg["theta_holonomy_degree"]
    d_chk, d_pr = cfg["check_degree"], cfg["prism_degree"]
    routes = [["series", "-g", "prism3", "--degree", str(d_pr), "--method", m]
              for m in ("westbury", "curves", "pfaffian")]
    jobs = [
        Job(["series", "-g", "theta", "--degree", str(d_det)], SERIES_TRIVIAL,
            equal_to("theta", d_det, [["series", "-g", "theta", "--degree", str(d_det),
                                       "--method", "westbury"]])),
        Job(["series", "-g", "theta", "--degree", str(d_hol), "-H", theta_h], SERIES_HOLONOMY,
            gauge_checked("theta", d_hol, d_chk,
                          ["series", "-g", "theta", "--degree", str(d_chk), "-H", theta_h,
                           "--check-against-eval"],
                          ["series", "-g", "theta", "--degree", str(d_hol), "-H", theta_h0])),
        Job(["series", "-g", "tetrahedron", "--degree", str(d_chk), "-H", tet_h,
             "--check-against-eval"], SERIES_HOLONOMY, checked_against_eval("tetrahedron", d_chk)),
        Job(["series", "-g", "tetrahedron_nonplanar", "--degree", str(d_chk),
             "--check-against-eval"], SERIES_TRIVIAL,
            checked_against_eval("tetrahedron_nonplanar", d_chk)),
    ]
    jobs += [Job(argv, SERIES_TRIVIAL, equal_to("prism3", d_pr, routes)) for argv in routes]
    return jobs


def numeric(root, tmp, rng, cfg, dispatch):
    theta, tet = (oracle.graph_json(root, g) for g in ("theta", "tetrahedron"))
    tet_col = {e["id"]: 2 for e in tet["edges"]}
    theta_col = {e["id"]: 2 for e in theta["edges"]}
    tet_c = _write_json(tmp / "tetrahedron_c2.json", tet_col)
    theta_c = _write_json(tmp / "theta_c2.json", theta_col)
    theta_u = _write_json(tmp / "theta_su2.json",
                          {h: rational_su2(rng) for v in theta["vertices"] for h in v["halfedges"]})
    n, n_matrix = cfg["mc_samples"], cfg["mc_matrix_samples"]
    seeds = [str(rng.randrange(1, 2 ** 31)) for _ in range(5)]
    y = {e: round(rng.uniform(0.1, 0.3), 2) for e in ("e1", "e2", "e3")}
    refs: dict = {}

    def mc(target_fn, n):
        def check(out):
            est = out["results"]["estimate"]
            _require(est["samples"] == n, "sample count differs")
            target = float(target_fn())
            _require(abs(est["mean"] - target) <= MC_SIGMAS * est["stderr"],
                     f"estimate {est['mean']} +- {est['stderr']} misses {target}")
        return check

    def holonomy_bracket():
        if "bracket" not in refs:
            rc, text = run_cli(dispatch, ["eval", "-g", "theta", "-c", theta_c, "-H", theta_u])
            _require(rc == 0, "exact reference evaluation failed")
            refs["bracket"] = Fraction(json.loads(text)["results"]["bracket_square"])
        return refs["bracket"]

    tet_triples = oracle.vertex_triples(tet)
    tet_bracket = oracle.bracket(tet_triples, tet_col, oracle.tetrahedron_value(tet_col))
    orth = oracle.theta_norm(2, 2, 2) ** 2 / 27

    scaled = {e: 80 for e in tet_col}
    k40_exact = float(oracle.bracket(tet_triples, scaled, oracle.tetrahedron_value(scaled)))

    def asymptote_check(out):
        res = out["results"]
        h = res["hypotheses"]
        _require(h["H1"] and h["H2"] and h["H3"], "hypotheses H1-H3 failed")
        k40 = {r["k"]: r["value"] for r in res["estimates"]}[40]
        _require(abs(k40 / k40_exact - 1) <= ASYMPTOTE_REL_TOL,
                 f"k=40 estimate {k40} is not within 15% of {k40_exact}")

    ys = [a for e, v in y.items() for a in ("--y", f"{e}={v}")]
    return [
        Job(["integrate", "-g", "tetrahedron", "-c", tet_c, "--workers", "2",
             "--samples", str(n), "--seed", seeds[0]], MC_INNER, mc(lambda: tet_bracket, n), n),
        Job(["integrate", "-g", "theta", "--target", "W", "--samples", str(n),
             "--seed", seeds[1]] + ys, MC_INNER,
            mc(lambda: oracle.theta_w(y["e1"], y["e2"], y["e3"]), n), n),
        Job(["integrate", "-g", "theta", "-c", theta_c, "-H", theta_u, "--samples", str(n_matrix),
             "--seed", seeds[2]], MC_MATRIX, mc(holonomy_bracket, n_matrix), n_matrix),
        Job(["integrate", "-g", "theta", "-c", theta_c, "--target", "orthogonality",
             "--samples", str(n_matrix), "--seed", seeds[3]], MC_MATRIX,
            mc(lambda: orth, n_matrix), n_matrix),
        Job(["asymptote", "-g", "tetrahedron", "-c", tet_c, "--k-list", "10,20,40",
             "--restarts", str(cfg["restarts"]), "--seed", seeds[4]], ASYMPTOTE, asymptote_check),
    ]


BUILDERS = {"exact-sweep": exact_sweep, "series-deep": series_deep, "numeric": numeric}


def build(name, root: Path, tmp: Path, seed: int, scale: str, dispatch) -> list:
    """The workload's job list, with its input files written under tmp."""
    rng = random.Random(f"{name}/{seed}")
    return BUILDERS[name](root, tmp, rng, SCALES[scale], dispatch)
