"""One workload in its own process: set up, run timed passes, check outputs.

Started by run.py with the checkout root as working directory.  Prints one
JSON object on its last stdout line and writes a record of the run (with the
environment, and with the spans of a traced run) to .bench_out/.  With
``--setup-only`` it stops after set-up; an untraced run starts SETUPS such
processes between its passes and reports the median of their set-up times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (ASYMPTOTE, EVAL, MC_INNER, MC_MATRIX, SERIES_HOLONOMY,  # noqa: E402
                       SERIES_TRIVIAL, CheckError, run_cli)


MIN_PASSES = 4
SETUPS = 7  # fresh set-up processes per untraced run, one after each early pass
# reference work of the speed probe, resembling each workload's jobs
PROBE = {"exact-sweep": ("py",), "series-deep": ("py",), "numeric": ("py", "np")}


def cpus():
    """The CPUs this process may run on (None where the OS does not say)."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


CPUS = cpus()


def setup(name, seed, scale, tmp):
    """Imports (numpy and scipy included), bundled graphs and inputs."""
    import spinnets.asymptotics  # noqa: F401  scipy, imported lazily by the CLI
    from spinnets import bundled_graph_path, load_graph
    from spinnets.cli import _BUNDLED, dispatch

    for g in _BUNDLED:
        load_graph(bundled_graph_path(g))
    return dispatch, workloads.build(name, ROOT, tmp, seed, scale, dispatch)


def run_pass(jobs, dispatch, tracer=None, probe=None):
    """One pass over the job list: (seconds inside jobs, [(job, start,
    seconds, rc, text | exc)]).  A speed probe, if given, bursts between jobs
    and after the last one."""
    results = []
    call = dispatch if tracer is None else tracer.wrap("cli", dispatch)
    inside = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = i
        if probe is not None:
            probe.maybe()
        t = time.perf_counter()
        try:
            rc, text = run_cli(call, job.argv)
        except Exception as exc:  # a raising job is a failed job, not a crash
            rc, text = None, exc
        elapsed = time.perf_counter() - t
        if cpus() != CPUS:
            # a narrowed CPU set would hide what threads and worker pools gain
            raise RuntimeError(f"CPU set changed from {sorted(CPUS)} to {sorted(cpus())}")
        inside += elapsed
        results.append((job, t, elapsed, rc, text))
    if probe is not None:
        probe.burst()
    return inside, results


def corrupt(job, out):
    """Make a job's output wrong in the way its check must catch."""
    res = out["results"]
    if job.kind == EVAL:
        res["value"]["re"] = str(Fraction(res["value"]["re"]) + 1)
    elif "check_all_equal" in res:
        res["check_all_equal"] = False
    elif "series" in res:
        res["series"]["terms"].pop()
    elif "estimate" in res:
        res["estimate"]["mean"] += 10 * res["estimate"]["stderr"] + 1
    else:
        for row in res["estimates"]:
            row["value"] *= 1.5


def check(results, corrupt_all=False):
    """Number of failed jobs; a job fails if it exits non-zero, raises, or
    its output is wrong.  ``corrupt_all`` alters every output first, to show
    that the checks are live."""
    failed = 0
    for job, _, _, rc, text in results:
        if rc != 0:
            failed += 1
            print(f"FAILED rc={rc}: spinnet {' '.join(job.argv)}: {text!r:.200}", file=sys.stderr)
            continue
        try:
            out = json.loads(text)
            if corrupt_all:
                corrupt(job, out)
            job.check(out)
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            failed += 1
            if not corrupt_all:
                print(f"FAILED check: spinnet {' '.join(job.argv)}: {exc!r:.300}",
                      file=sys.stderr)
    return failed


def run_passes(jobs, dispatch, seconds, min_passes, tracer=None, corrupt_first=False,
               between=None, probe=None):
    """At least `min_passes` passes over the job list, then more while another
    pass fits in `seconds` of pass time; `between()`, if given, runs after
    every pass, outside that time.  Returns (seconds inside jobs per pass,
    [(start, seconds) per pass] for each job, failed jobs)."""
    walls, times, failed = [], [[] for _ in jobs], 0
    spent = 0.0
    while True:
        lap = time.perf_counter()
        wall, res = run_pass(jobs, dispatch, tracer, probe)
        walls.append(wall)
        for i, (_, start, t, _, _) in enumerate(res):
            times[i].append((start, t))
        failed += check(res, corrupt_first and len(walls) == 1)
        lap = time.perf_counter() - lap
        spent += lap
        if len(walls) >= min_passes and spent + lap > seconds:
            return walls, times, failed
        if between is not None:
            between()


def fresh_setup(args, probe):
    """Seconds from starting a fresh workload process to its first job:
    (measured, at the reference speed of the probe bursts around it)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--seconds", "0", "--setup-only"]
    for _ in range(3):
        probe.burst()
    start, t0 = time.perf_counter(), time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    seconds = json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0
    for _ in range(3):
        probe.burst()
    return seconds, probe.scale(start, seconds)


def percentile(values, q):
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(times):
    return [min(t for _, t in runs) for runs in times]


def end_to_end(job_s):
    return {
        "wall_s": (sum(job_s), "s"),
        "job_geomean_ms": (1e3 * math.exp(statistics.fmean(math.log(t) for t in job_s)), "ms"),
    }


def path_metrics(jobs, best):
    """Per-path numbers from the untraced passes (0 where a workload has no
    job of that kind)."""
    by_kind: dict = {}
    for job, t in zip(jobs, best):
        by_kind.setdefault(job.kind, []).append((job, t))

    def busy(kind):
        return sum(t for _, t in by_kind.get(kind, []))

    def rate(kind):
        return sum(j.samples for j, _ in by_kind.get(kind, [])) / busy(kind) if busy(kind) else 0.0

    evals = [1e3 * t for _, t in by_kind.get(EVAL, [])]
    return {
        "eval_p50_ms": (statistics.median(evals) if evals else 0.0, "ms"),
        # 10 of the 200 evals lie beyond it
        "eval_p95_ms": (percentile(evals, 95) if evals else 0.0, "ms"),
        "series_trivial_s": (busy(SERIES_TRIVIAL), "s"),
        "series_holonomy_s": (busy(SERIES_HOLONOMY), "s"),
        "mc_inner_samples_per_s": (rate(MC_INNER), "1/s"),
        "mc_matrix_samples_per_s": (rate(MC_MATRIX), "1/s"),
        "asymptote_s": (busy(ASYMPTOTE), "s"),
    }


# per-layer metrics: (metric, span name, field, unit)
SPAN_METRICS = [
    ("cli.self_s", "cli", "self_s", "s"),
    ("graphs.load_s", "graphs.load", "busy_s", "s"),
    ("graphs.loads", "graphs.load", "calls", "count"),
    ("evaluator.eval.busy_s", "evaluator.eval", "busy_s", "s"),
    ("evaluator.eval.self_s", "evaluator.eval", "self_s", "s"),
    ("evaluator.eval.calls", "evaluator.eval", "calls", "count"),
    ("evaluator.bracket_square.busy_s", "evaluator.bracket_square", "busy_s", "s"),
    ("polyring.mul.self_s", "polyring.mul", "self_s", "s"),
    ("polyring.mul.calls", "polyring.mul", "calls", "count"),
    ("polyring.pow.busy_s", "polyring.pow", "busy_s", "s"),
    ("polyring.edge_op.self_s", "polyring.edge_op", "self_s", "s"),
    ("polyring.edge_op.calls", "polyring.edge_op", "calls", "count"),
    ("polyring.mul_trunc.self_s", "polyring.mul_trunc", "self_s", "s"),
    ("polyring.mul_trunc.calls", "polyring.mul_trunc", "calls", "count"),
    ("polyring.add.self_s", "polyring.add", "self_s", "s"),
    ("polyring.inv_sqrt.busy_s", "polyring.inv_sqrt", "busy_s", "s"),
    ("polyring.inverse.busy_s", "polyring.inverse", "busy_s", "s"),
    ("polyring.det_poly.busy_s", "polyring.det_poly", "busy_s", "s"),
    ("series.build_pq.busy_s", "series.build_pq", "busy_s", "s"),
    ("series.truncated_det.self_s", "series.truncated_det", "self_s", "s"),
    ("series.truncated_det.busy_s", "series.truncated_det", "busy_s", "s"),
    ("series.routes.busy_s", "series.routes", "busy_s", "s"),
    ("series.nonplanar_fix.busy_s", "series.nonplanar_fix", "busy_s", "s"),
    ("series.compare.busy_s", "series.compare", "busy_s", "s"),
    ("haar.sample.self_s", "haar.sample", "self_s", "s"),
    ("haar.sample.calls", "haar.sample", "calls", "count"),
    ("haar.su2_matrix.self_s", "haar.su2_matrix", "self_s", "s"),
    ("haar.mc_bracket.self_s", "haar.mc_bracket", "self_s", "s"),
    ("haar.mc_W.self_s", "haar.mc_W", "self_s", "s"),
    ("haar.mc_orthogonality.self_s", "haar.mc_orthogonality", "self_s", "s"),
    ("asymptotics.lm.busy_s", "asymptotics.lm", "busy_s", "s"),
    ("asymptotics.lm.calls", "asymptotics.lm", "calls", "count"),
    ("asymptotics.find_configs.self_s", "asymptotics.find_configs", "self_s", "s"),
    ("asymptotics.check_hypotheses.busy_s", "asymptotics.check_hypotheses", "busy_s", "s"),
    ("asymptotics.estimate.busy_s", "asymptotics.estimate", "busy_s", "s"),
    ("asymptotics.estimate.calls", "asymptotics.estimate", "calls", "count"),
]
COUNT_METRICS = ["polyring.mul.terms_out", "polyring.edge_op.terms_out",
                 "polyring.mul_trunc.terms_out", "haar.samples", "asymptotics.lm.nfev"]


def per_layer(tracer, traced_walls, traced_best, untraced_best, jobs_per_pass):
    """Per-layer metrics from the traced passes, as amounts per pass."""
    npass = len(traced_walls)
    table = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for metric, span, fld, unit in SPAN_METRICS:
        out[metric] = (table.get(span, empty)[fld] / npass, unit)
    for key in COUNT_METRICS:
        out[key] = (tracer.counts.get(key, 0) / npass, "count")
    lm_calls = table.get("asymptotics.lm", empty)["calls"]
    out["asymptotics.lm.raised"] = (tracer.raised.get("asymptotics.lm", 0) / npass, "count")
    out["asymptotics.converged_ratio"] = (
        tracer.counts.get("asymptotics.hits", 0) / lm_calls if lm_calls else 0.0, "ratio")
    out["evaluator.eval_calls_per_job"] = (
        table.get("evaluator.eval", empty)["calls"] / (npass * jobs_per_pass), "ratio")
    self_total = sum(row["self_s"] for row in table.values())
    out["trace.attributed_frac"] = (self_total / sum(traced_walls), "ratio")
    out["trace.overhead_frac"] = (sum(traced_best) / sum(untraced_best) - 1, "ratio")
    return out, table


def environment():
    import platform

    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401
        tpc = True
    except ImportError:
        tpc = False
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"nproc": os.cpu_count(), "cpus": sorted(CPUS) if CPUS else None, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threadpoolctl": tpc, "commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter every output of the first pass (self-test)")
    args = ap.parse_args(argv)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        dispatch, jobs = setup(args.workload, args.seed, args.scale, tmp)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            from tracer import Tracer

            budget = args.seconds / 2
            walls, times, failed = run_passes(jobs, dispatch, budget, 1,
                                              corrupt_first=args.corrupt)
            best = best_times(times)
            tracer = Tracer()
            tracer.install()
            try:
                twalls, ttimes, tfailed = run_passes(jobs, dispatch, budget, 1, tracer)
            finally:
                tracer.uninstall()
            tbest = best_times(ttimes)
            metrics, table = per_layer(tracer, twalls, tbest, best, len(jobs))
            metrics.update(path_metrics(jobs, best))
            attempted, failed = len(jobs) * (len(walls) + len(twalls)), failed + tfailed
            metrics["failed_frac"] = (failed / attempted, "ratio")
            record.update(traced_walls_s=twalls, spans_per_pass={
                k: {f: v / len(twalls) for f, v in row.items()} for k, row in sorted(table.items())})
        else:
            # set-ups between passes spread the samples over the run, so a
            # few slow seconds move few of them
            probe = SpeedProbe(PROBE[args.workload])
            setups = []

            def between():
                if len(setups) < SETUPS:
                    setups.append(fresh_setup(args, probe))

            walls, times, failed = run_passes(jobs, dispatch, args.seconds, MIN_PASSES,
                                              corrupt_first=args.corrupt, between=between,
                                              probe=probe)
            while len(setups) < SETUPS:
                setups.append(fresh_setup(args, probe))
            # each job at the reference speed, median over the passes
            job_s = [statistics.median(probe.scale(start, t) for start, t in runs)
                     for runs in times]
            best = best_times(times)
            record.update(setups_s=[s for s, _ in setups], probe_at=probe.at,
                          probe_burst_s=probe.burst_s,
                          times_s={" ".join(j.argv): runs for j, runs in zip(jobs, times)})
            metrics = end_to_end(job_s)
            metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss, "MB")
            attempted = len(jobs) * len(walls)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        if args.trace:
            tracer.dump(out / f"{args.workload}.spans")
        record.update(environment=environment(), walls_s=walls, attempted=attempted,
                      failed=failed, metrics=metrics,
                      best_s={" ".join(j.argv): t for j, t in zip(jobs, best)})
        (out / f"{args.workload}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        print(json.dumps({"attempted": attempted, "failed": failed,
                          "jobs_per_pass": len(jobs), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
