"""Command-line front end.

Subcommands: eval, series, integrate, asymptote, check, selftest.  Reports
are deterministic JSON on stdout (identical inputs + seed + workers give
byte-identical output); timing and warnings go to stderr.  Exit codes:
0 success, 1 hypothesis/numerical failure or a refusal past the term budget
(a product or edge contraction, a series step counting its products and the
terms it holds, the planar routes' cycle space, the curve walk's steps), 2
input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from functools import cache

import numpy as np

from . import __version__, bundled_graph_path
from .errors import (AdmissibilityError, DomainError, HypothesisError, InputError,
                     NumericalError, PreconditionError, RegimeError, ResourceError,
                     SpinnetError)
from .evaluator import _bracket_square, bracket_square, eval_spin_network, theta_value
from .graphs import (Graph, check_coloring, is_admissible, load_coloring, load_graph,
                     load_holonomy, parse_json, read_input, vertex_colors)
from .haar import mc_bracket, mc_orthogonality, mc_W_point
from .polyring import MAX_EXPONENT, MPoly, inverse_series
from .rational import QQi, format_exact
from .series import (abelian_curve_sum, compare_with_evaluations, nonplanar_fix,
                     pfaffian_dimer_sum, series_Z, westbury_polynomial)

DEFAULT_SEED = 20120712
_BUNDLED = ("theta", "tetrahedron", "prism3", "tetrahedron_nonplanar")


def _report(args, inputs, results, seed=None):
    out = {
        "command": vars(args).get("_argv", []),
        "inputs": inputs,
        "results": results,
        "versions": {"spinnets": __version__, "numpy": np.__version__},
    }
    if seed is not None:
        out["seed"] = seed
    return out


_INF = float("inf")
_escape = json.encoder.encode_basestring_ascii  # json's own C escaper


def _float_text(x: float) -> str:
    """A float as json writes it, rounded to 10 significant digits so reports
    only carry digits that are reproducible across runs (BLAS rounding is not
    bit-stable)."""
    x = float(f"{x:.10g}") + 0.0  # also folds -0.0 into 0.0
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(obj, put, nl: str):
    """Write obj through put() as `json.dumps(obj, sort_keys=True, indent=2)`
    would, with floats by _float_text and an MPoly as its term list; nl is
    the newline and indent of the line obj starts on."""
    if isinstance(obj, str):
        put(_escape(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner, sep = nl + "  ", "["
        for v in obj:
            put(sep + inner)
            _write(v, put, inner)
            sep = ","
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"report key {k!r} is not a str")
        inner, sep = nl + "  ", "{"
        for k in sorted(obj):
            put(sep + inner + _escape(k) + ": ")
            _write(obj[k], put, inner)
            sep = ","
        put(nl + "}")
    elif isinstance(obj, MPoly):
        _write_terms(obj, put, nl)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_terms(poly: MPoly, put, nl: str):
    """Write poly's term list, each term {"exponents": {name: e}, "im": im,
    "re": re} in key order, straight from its packed keys."""
    if not poly.terms:
        put("[]")
        return
    term_nl = nl + "  "
    field_nl = term_nl + "  "
    exp_nl = field_nl + "  "
    ns = poly.ns
    # json sorts keys before it escapes them, so sort the raw names
    fields = [(ns.shift(name), f"{exp_nl}{_escape(name)}: ") for name in sorted(ns.names)]
    sep = "["
    for key in sorted(poly.terms):
        c = poly.terms[key]
        re, im = (c.re, c.im) if isinstance(c, QQi) else (c, 0)
        exps = ",".join(f"{label}{e}" for s, label in fields
                        if (e := key >> s & MAX_EXPONENT))
        exps = f"{{{exps}{field_nl}}}" if exps else "{}"
        put(f'{sep}{term_nl}{{{field_nl}"exponents": {exps},{field_nl}"im": "{im}",'
            f'{field_nl}"re": "{re}"{term_nl}}}')
        sep = ","
    put(nl + "]")


def _emit(obj):
    """Print a report: sorted keys, 2-space indent, ASCII escapes, floats to
    10 significant digits."""
    parts = []
    _write(obj, parts.append, "\n")
    print("".join(parts))


def _read(path) -> tuple[bytes, str]:
    """A file's bytes and the digest reported for them."""
    data = read_input(path)
    return data, hashlib.sha256(data).hexdigest()[:16]


@cache
def _bundled(name: str) -> tuple[Graph, str]:
    """A bundled graph and its digest, parsed once per process: commands
    only read a Graph, so every dispatch can share it."""
    path = bundled_graph_path(name)
    data, digest = _read(path)
    return load_graph(path, data), digest


def _load_inputs(args):
    """Graph (bundled name or file) and optional -H holonomy, with the
    digests of the bytes they were parsed from.  A file is read once per
    call and never kept."""
    if args.graph in _BUNDLED:
        graph, digest = _bundled(args.graph)
    else:
        data, digest = _read(args.graph)
        graph = load_graph(args.graph, data)
    inputs = {"graph": digest}
    holonomy = None
    if getattr(args, "holonomy", None):
        data, inputs["holonomy"] = _read(args.holonomy)
        holonomy = load_holonomy(args.holonomy, graph, data)
    return graph, holonomy, inputs


def _load_coloring_arg(spec: str | None, graph: Graph) -> dict:
    """Coloring from -c: inline JSON object or a coloring file."""
    if not spec:
        raise InputError("a coloring (-c) is required")
    if not spec.strip().startswith("{"):
        return load_coloring(spec, graph)
    return check_coloring(parse_json(spec, "inline coloring"), graph, "inline coloring")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _float(x, what: str) -> float:
    """An exact rational as a float; a huge holonomy can put it past the range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is beyond floating-point range") from None


def _cmd_eval(args):
    graph, holonomy, inputs = _load_inputs(args)
    coloring = _load_coloring_arg(args.coloring, graph)
    value = eval_spin_network(graph, coloring, holonomy)
    admissible = is_admissible(graph, coloring)
    results = {
        "graph": graph.name,
        "coloring": coloring,
        "admissible": admissible,
        "value": format_exact(value),
        "abs": _float(value.norm2(), "the squared modulus of the value") ** 0.5,
        "bracket_square": str(_bracket_square(graph, coloring, value) if admissible else 0),
    }
    _emit(_report(args, inputs, results))
    return 0


def _cmd_series(args):
    graph, holonomy, inputs = _load_inputs(args)
    degree = args.degree
    if not 0 <= degree <= MAX_EXPONENT:
        raise InputError(f"--degree must be in 0..{MAX_EXPONENT}, got {degree}")
    if args.method == "det":
        series = series_Z(graph, holonomy, degree)
    else:
        if holonomy is not None and not holonomy.is_trivial():
            raise InputError(f"method {args.method!r} supports only the trivial holonomy")
        if args.method == "curves":
            d = abelian_curve_sum(graph)
        else:  # the square of the cycle polynomial, by westbury or pfaffian
            route = westbury_polynomial if args.method == "westbury" else pfaffian_dimer_sum
            p = route(graph)
            d = p * p
        series = inverse_series(d, degree)
    # det and curves expand determinants, which carry the crossing signs;
    # westbury and pfaffian count cycles without signs
    sign_fixed = bool(graph.crossings) and args.method in ("det", "curves")
    if sign_fixed:
        series = nonplanar_fix(series, graph)
    results = {
        "graph": graph.name,
        "method": args.method,
        "degree": degree,
        "sign_fixed": sign_fixed,
        "series": {"degree": degree, "terms": series},
    }
    if args.check_against_eval:
        rows = compare_with_evaluations(graph, holonomy, series, degree)
        results["check"] = [
            {"coloring": col, "coefficient": format_exact(c),
             "evaluation": format_exact(e), "equal": ok}
            for col, c, e, ok in rows
        ]
        results["check_all_equal"] = all(r[3] for r in rows)
    _emit(_report(args, inputs, results))
    if args.check_against_eval and not results["check_all_equal"]:
        bad = sum(not r[3] for r in rows)
        print(f"failure: {bad} of {len(rows)} series coefficients differ from "
              "the evaluations", file=sys.stderr)
        return 1
    return 0


def _parse_y(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--y expects edge=value, got {item!r}")
        e, v = item.split("=", 1)
        try:
            y = float(v)
        except ValueError:
            raise InputError(f"--y value for {e!r} is not a number: {v!r}") from None
        if e in out:
            raise InputError(f"--y gives edge {e!r} twice")
        out[e] = y
    return out


def _workers(args) -> int:
    """--workers, else SPINNET_WORKERS, else 1; haar checks the range."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("SPINNET_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SPINNET_WORKERS must be an integer, got {raw!r}") from None


# the inputs a target never reads, refused rather than ignored (orthogonality
# integrates over every connection, so it reads no holonomy either)
_UNREAD = {"bracket": (("y", "--y"),),
           "orthogonality": (("y", "--y"), ("holonomy", "-H")),
           "W": (("coloring", "-c"),)}


def _cmd_integrate(args):
    workers = _workers(args)
    for attr, flag in _UNREAD.get(args.target, ()):
        if getattr(args, attr):
            raise InputError(f"--target {args.target} takes no {flag}")
    graph, holonomy, inputs = _load_inputs(args)
    results = {"graph": graph.name, "target": args.target, "workers": workers}
    if args.target in ("bracket", "orthogonality"):
        coloring = _load_coloring_arg(args.coloring, graph)
        if max(coloring.values()) > 10:
            warnings.warn("integrate: colors above 10 have large variance; "
                          "watch the reported stderr")
        results["coloring"] = coloring
        if args.target == "bracket":
            # the exact target checks the colors' bound, so it comes first
            target = _float(bracket_square(graph, coloring, holonomy),
                            "the target bracket square")
            est = mc_bracket(graph, coloring, holonomy, args.samples, args.seed, workers)
        else:
            # a target that underflows is an input error, refused before sampling
            target = 1.0
            for cols in vertex_colors(graph, coloring):
                target *= float(theta_value(*cols))
            for e in graph.edge_ids:
                target /= coloring[e] + 1
            if not target:
                raise DomainError(f"the target prod_v <v> / prod_e (c_e + 1) is {target} "
                                  "in floating point at these colors")
            est = mc_orthogonality(graph, coloring, args.samples, args.seed, workers)
    elif args.target == "W":
        y = _parse_y(args.y)
        est = mc_W_point(graph, y, holonomy, args.samples, args.seed, workers)
        results["y"] = y
        target = None
    else:
        raise InputError(f"unknown target {args.target!r}")
    results["estimate"] = est.to_obj(target)
    _emit(_report(args, inputs, results, seed=args.seed))
    return 0


def _configs_and_report(args, ks=()):
    """Graph, coloring, input digests, critical configurations and their
    hypothesis report, shared by check and asymptote; asymptote's scales ks
    are checked against the graph's prefactor and the phase accuracy before
    the search."""
    from .asymptotics import check_hypotheses, check_phase_bound, find_configs, scale_prefactor

    graph, _, inputs = _load_inputs(args)
    coloring = _load_coloring_arg(args.coloring, graph)
    for k in ks:
        scale_prefactor(graph, k)
        check_phase_bound(coloring, k, args.tol)
    configs = find_configs(graph, coloring, restarts=args.restarts, tol=args.tol,
                           seed=args.seed)
    return graph, coloring, inputs, configs, check_hypotheses(graph, coloring, configs)


def _cmd_check(args):
    graph, coloring, inputs, configs, report = _configs_and_report(args)
    results = {
        "graph": graph.name,
        "coloring": coloring,
        "configurations": [
            # residual is rounded absolutely: anything below 1e-12 is noise
            {"hits": c.hits, "residual": round(c.residual, 12),
             "triple_sign": c.triple_sign,
             "vectors": {e: [round(float(x), 10) + 0.0 for x in c.vectors[i]]
                         for i, e in enumerate(graph.edge_ids)}}
            for c in configs
        ],
        "hypotheses": report.to_obj(),
    }
    _emit(_report(args, inputs, results, seed=args.seed))
    return 0 if report.passed else 1


def _cmd_asymptote(args):
    from .asymptotics import asymptotic_estimate

    try:
        ks = [int(x) for x in args.k_list.split(",") if x]
    except ValueError as exc:
        raise InputError(f"--k-list takes comma-separated integers: {exc}") from exc
    if not ks:
        raise InputError("--k-list is empty")
    if min(ks) < 1:
        raise InputError(f"--k-list values must be >= 1, got {args.k_list!r}")
    graph, coloring, inputs, configs, report = _configs_and_report(args, ks)
    if not configs:
        raise HypothesisError("no critical configurations found")
    if not report.passed:
        raise HypothesisError(
            "hypotheses failed: " + json.dumps(report.to_obj()["configs"]) if not report.h1
            else "H2/H3 failed on a configuration pair")
    estimates = [
        # extrapolated determinants carry ~1e-12 relative eigensolver
        # noise; keep 8 significant digits so repeated runs agree
        {"k": r["k"], "value": float(f"{r['value']:.8g}"),
         "first_sum": float(f"{r['terms']['first_sum']:.8g}"),
         "second_sum": float(f"{r['terms']['second_sum']:.8g}"),
         "convention_dependent": r["convention_dependent"]}
        for r in asymptotic_estimate(graph, coloring, report, ks)
    ]
    if args.report == "csv":
        print(",".join(estimates[0]))
        for r in estimates:
            print(",".join(str(v) for v in r.values()))
        return 0
    results = {
        "graph": graph.name,
        "coloring": coloring,
        "hypotheses": report.to_obj(),
        "estimates": estimates,
    }
    _emit(_report(args, inputs, results, seed=args.seed))
    return 0


def _cmd_selftest(args):
    from . import selftest

    return selftest.run(seed=args.seed)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's SeedSequence requires."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `input error:` line on stderr and exits
    2, like every other malformed input; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"input error: {self.prog}: {message}\n")


@cache
def _build_parser():
    parser = _Parser(prog="spinnet", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_graph(p, coloring=True, holonomy=True):
        p.add_argument("-g", "--graph", required=True,
                       help="graph JSON file or bundled name "
                            "(theta, tetrahedron, prism3, tetrahedron_nonplanar)")
        if coloring:
            p.add_argument("-c", "--coloring", help="coloring JSON file or inline JSON")
        if holonomy:
            p.add_argument("-H", "--holonomy", help="holonomy JSON file")

    p = sub.add_parser("eval", help="exact evaluation")
    add_graph(p)

    p = sub.add_parser("series", help="generating series")
    add_graph(p, coloring=False)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--method", choices=("det", "westbury", "curves", "pfaffian"),
                   default="det")
    p.add_argument("--check-against-eval", action="store_true")

    p = sub.add_parser("integrate", help="Monte-Carlo integrals")
    add_graph(p)
    p.add_argument("--target", choices=("bracket", "W", "orthogonality"),
                   default="bracket")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--y", action="append", metavar="EDGE=VAL",
                   help="evaluation point for --target W (repeatable)")

    p = sub.add_parser("check", help="hypothesis report")
    add_graph(p, holonomy=False)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    p = sub.add_parser("asymptote", help="leading-order estimates")
    add_graph(p, holonomy=False)
    p.add_argument("--k-list", default="10,20,40")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    p = sub.add_parser("selftest", help="reduced-scale acceptance checks")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "series": _cmd_series,
    "integrate": _cmd_integrate,
    "check": _cmd_check,
    "asymptote": _cmd_asymptote,
    "selftest": _cmd_selftest,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args._argv = list(argv)
    t0 = time.time()
    try:
        rc = _HANDLERS[args.cmd](args)
    except (InputError, PreconditionError, AdmissibilityError, RegimeError,
            DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HypothesisError, NumericalError, ResourceError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except SpinnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed_ms={int(1000 * (time.time() - t0))}", file=sys.stderr)
    return rc


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
