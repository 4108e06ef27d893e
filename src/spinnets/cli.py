"""Command-line front end.

Subcommands: eval, series, integrate, asymptote, check, selftest.  Reports
are deterministic JSON on stdout (identical inputs + seed + workers give
byte-identical output); timing and warnings go to stderr.  Exit codes:
0 success, 1 hypothesis/numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__, bundled_graph_path
from .errors import (AdmissibilityError, DomainError, HypothesisError, InputError,
                     NumericalError, PreconditionError, RegimeError, SpinnetError)
from .evaluator import bracket_square, eval_spin_network, theta_value
from .graphs import (Graph, check_coloring, is_admissible, load_coloring, load_graph,
                     load_holonomy)
from .haar import mc_bracket, mc_orthogonality, mc_W_point
from .polyring import MAX_EXPONENT, inverse_series
from .rational import format_exact
from .series import (abelian_curve_sum, compare_with_evaluations, nonplanar_fix,
                     pfaffian_dimer_sum, series_Z, westbury_polynomial)

DEFAULT_SEED = 20120712
_BUNDLED = ("theta", "tetrahedron", "prism3", "tetrahedron_nonplanar")


def _digest(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


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


def _sanitize(obj):
    """Round floats to 10 significant digits so reports only carry digits
    that are reproducible across runs (BLAS rounding is not bit-stable)."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}") + 0.0  # also folds -0.0 into 0.0
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _emit(obj):
    print(json.dumps(_sanitize(obj), sort_keys=True, indent=2))


def _load_inputs(args):
    """Graph (file or bundled name) and optional -H holonomy, with the
    digests of the files they came from."""
    gpath = bundled_graph_path(args.graph) if args.graph in _BUNDLED else args.graph
    graph = load_graph(gpath)
    inputs = {"graph": _digest(gpath)}
    holonomy = None
    if getattr(args, "holonomy", None):
        holonomy = load_holonomy(args.holonomy, graph)
        inputs["holonomy"] = _digest(args.holonomy)
    return graph, holonomy, inputs


def _load_coloring_arg(spec: str | None, graph: Graph) -> dict:
    """Coloring from -c: inline JSON object or a coloring file."""
    if not spec:
        raise InputError("a coloring (-c) is required")
    if not spec.strip().startswith("{"):
        return load_coloring(spec, graph)
    try:
        obj = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise InputError(f"inline coloring is not valid JSON: {exc}") from exc
    return check_coloring(obj, graph, "inline coloring")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    graph, holonomy, inputs = _load_inputs(args)
    coloring = _load_coloring_arg(args.coloring, graph)
    value = eval_spin_network(graph, coloring, holonomy)
    results = {
        "graph": graph.name,
        "coloring": coloring,
        "admissible": is_admissible(graph, coloring),
        "value": format_exact(value),
        "abs": float(value.norm2()) ** 0.5,
        "bracket_square": str(bracket_square(graph, coloring, value=value)),
    }
    _emit(_report(args, inputs, results))
    return 0


def _cmd_series(args):
    graph, holonomy, inputs = _load_inputs(args)
    degree = args.degree
    if not 0 <= degree <= MAX_EXPONENT:
        raise InputError(f"--degree must be in 0..{MAX_EXPONENT}, got {degree}")
    sign_fixed = False
    if args.method == "det":
        series = series_Z(graph, holonomy, degree)
        if graph.crossings:
            series = nonplanar_fix(series, graph)
            sign_fixed = True
    else:
        if holonomy is not None:
            raise InputError(f"method {args.method!r} supports only the trivial holonomy")
        if args.method == "westbury":
            p = westbury_polynomial(graph)
            series = inverse_series((p * p).truncated(degree), degree)
        elif args.method == "curves":
            series = inverse_series(abelian_curve_sum(graph).truncated(degree), degree)
        elif args.method == "pfaffian":
            p = pfaffian_dimer_sum(graph)
            series = inverse_series((p * p).truncated(degree), degree)
        else:
            raise InputError(f"unknown method {args.method!r}")
    results = {
        "graph": graph.name,
        "method": args.method,
        "degree": degree,
        "sign_fixed": sign_fixed,
        "series": series.to_obj(),
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
        if not math.isfinite(y):
            raise InputError(f"--y value for {e!r} must be finite, got {v!r}")
        out[e] = y
    return out


def _cmd_integrate(args):
    graph, holonomy, inputs = _load_inputs(args)
    results = {"graph": graph.name, "target": args.target, "workers": args.workers}
    if args.target in ("bracket", "orthogonality"):
        coloring = _load_coloring_arg(args.coloring, graph)
        if max(coloring.values()) > 10:
            warnings.warn("integrate: colors above 10 have large variance; "
                          "watch the reported stderr")
        results["coloring"] = coloring
        if args.target == "bracket":
            est = mc_bracket(graph, coloring, holonomy, args.samples, args.seed, args.workers)
            target = float(bracket_square(graph, coloring, holonomy))
        else:
            est = mc_orthogonality(graph, coloring, args.samples, args.seed, args.workers)
            target = 1.0
            for v, hs in graph.vertices:
                a, b, c = (coloring[graph.edge_of[h][0]] for h in hs)
                target *= float(theta_value(a, b, c)) if is_admissible(graph, coloring) else 0.0
            for e in graph.edge_ids:
                target /= coloring[e] + 1
    elif args.target == "W":
        y = _parse_y(args.y)
        missing = set(graph.edge_ids) - set(y)
        if missing:
            raise InputError(f"--y misses edges {sorted(missing)}")
        est = mc_W_point(graph, y, holonomy, args.samples, args.seed, args.workers)
        results["y"] = y
        target = None
    else:
        raise InputError(f"unknown target {args.target!r}")
    results["estimate"] = est.to_obj(target)
    _emit(_report(args, inputs, results, seed=args.seed))
    return 0


def _cmd_check(args):
    from .asymptotics import check_hypotheses, find_configs

    graph, _, inputs = _load_inputs(args)
    coloring = _load_coloring_arg(args.coloring, graph)
    configs = find_configs(graph, coloring, restarts=args.restarts, tol=args.tol,
                           seed=args.seed)
    report = check_hypotheses(graph, coloring, configs)
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
    from .asymptotics import asymptotic_estimate, check_hypotheses, find_configs

    graph, _, inputs = _load_inputs(args)
    coloring = _load_coloring_arg(args.coloring, graph)
    try:
        ks = [int(x) for x in args.k_list.split(",") if x]
    except ValueError as exc:
        raise InputError(f"--k-list takes comma-separated integers: {exc}") from exc
    if not ks:
        raise InputError("--k-list is empty")
    if min(ks) < 1:
        raise InputError(f"--k-list values must be >= 1, got {args.k_list!r}")
    configs = find_configs(graph, coloring, restarts=args.restarts, tol=args.tol,
                           seed=args.seed)
    report = check_hypotheses(graph, coloring, configs)
    if not report.passed:
        raise HypothesisError(
            "hypotheses failed: " + json.dumps(report.to_obj()["configs"]) if not report.h1
            else "H2/H3 failed on a configuration pair")
    rows = [asymptotic_estimate(graph, coloring, k, configs=configs) for k in ks]
    if args.report == "csv":
        print("k,value,first_sum,second_sum,convention_dependent")
        for r in rows:
            print(f"{r['k']},{r['value']!r},{r['terms']['first_sum']!r},"
                  f"{r['terms']['second_sum']!r},{r['convention_dependent']}")
        return 0
    results = {
        "graph": graph.name,
        "coloring": coloring,
        "hypotheses": report.to_obj(),
        "estimates": [
            # extrapolated determinants carry ~1e-12 relative eigensolver
            # noise; keep 8 significant digits so repeated runs agree
            {"k": r["k"], "value": float(f"{r['value']:.8g}"),
             "first_sum": float(f"{r['terms']['first_sum']:.8g}"),
             "second_sum": float(f"{r['terms']['second_sum']:.8g}"),
             "convention_dependent": r["convention_dependent"]}
            for r in rows
        ],
    }
    _emit(_report(args, inputs, results, seed=args.seed))
    return 0


def _cmd_selftest(args):
    from . import selftest

    return selftest.run(seed=args.seed)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="spinnet", description=__doc__)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--y", action="append", metavar="EDGE=VAL",
                   help="evaluation point for --target W (repeatable)")

    p = sub.add_parser("check", help="hypothesis report")
    add_graph(p, holonomy=False)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("asymptote", help="leading-order estimates")
    add_graph(p, holonomy=False)
    p.add_argument("--k-list", default="10,20,40")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("selftest", help="reduced-scale acceptance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    if getattr(args, "workers", None) is None and args.cmd == "integrate":
        import os

        args.workers = int(os.environ.get("SPINNET_WORKERS", "1"))
    t0 = time.time()
    try:
        # multithreaded BLAS reductions are not order-deterministic; sample
        # parallelism is seed-chunked by --workers instead
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:  # pragma: no cover
            from contextlib import nullcontext

            limiter = nullcontext()
        else:
            limiter = threadpool_limits(limits=1)
        with limiter:
            rc = _HANDLERS[args.cmd](args)
    except (InputError, PreconditionError, AdmissibilityError, RegimeError,
            DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HypothesisError, NumericalError) as exc:
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
