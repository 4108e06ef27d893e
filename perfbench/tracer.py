"""Outside-in tracing: spans recorded around library calls, with no change
to the library.

Each traced function is replaced at the attribute where its caller looks the
name up (``from .x import y`` binds ``y`` in the caller's module, so e.g.
``spinnets.cli.series_Z`` and ``spinnets.series.inv_sqrt_series`` are patched
separately); ``MPoly`` methods are patched on the class.  Spans live in
memory as parallel arrays (name, start, end, parent, job) and are written
out once at the end.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (module, attribute, span name)
FUNCTIONS = [
    ("spinnets.cli", "load_graph", "graphs.load"),
    ("spinnets.cli", "load_holonomy", "graphs.load"),
    ("spinnets.cli", "load_coloring", "graphs.load"),
    ("spinnets.cli", "eval_spin_network", "evaluator.eval"),
    ("spinnets.evaluator", "eval_spin_network", "evaluator.eval"),
    ("spinnets.series", "eval_spin_network", "evaluator.eval"),
    ("spinnets.cli", "bracket_square", "evaluator.bracket_square"),
    ("spinnets.evaluator", "apply_edge_operator", "polyring.edge_op"),
    ("spinnets.cli", "series_Z", "series.series_Z"),
    ("spinnets.series", "build_pq", "series.build_pq"),
    ("spinnets.series", "truncated_det", "series.truncated_det"),
    ("spinnets.series", "inv_sqrt_series", "polyring.inv_sqrt"),
    ("spinnets.series", "det_poly", "polyring.det_poly"),
    ("spinnets.cli", "inverse_series", "polyring.inverse"),
    ("spinnets.cli", "westbury_polynomial", "series.routes"),
    ("spinnets.cli", "abelian_curve_sum", "series.routes"),
    ("spinnets.cli", "pfaffian_dimer_sum", "series.routes"),
    ("spinnets.cli", "nonplanar_fix", "series.nonplanar_fix"),
    ("spinnets.cli", "compare_with_evaluations", "series.compare"),
    ("spinnets.haar", "haar_su2", "haar.sample"),
    ("spinnets.haar", "su2_matrix", "haar.su2_matrix"),
    ("spinnets.asymptotics", "su2_matrix", "haar.su2_matrix"),
    ("spinnets.cli", "mc_bracket", "haar.mc_bracket"),
    ("spinnets.cli", "mc_W_point", "haar.mc_W"),
    ("spinnets.cli", "mc_orthogonality", "haar.mc_orthogonality"),
    ("spinnets.asymptotics", "least_squares", "asymptotics.lm"),
    ("spinnets.asymptotics", "find_configs", "asymptotics.find_configs"),
    ("spinnets.asymptotics", "check_hypotheses", "asymptotics.check_hypotheses"),
    ("spinnets.asymptotics", "asymptotic_estimate", "asymptotics.estimate"),
]

# MPoly methods, patched on the class (__rmul__ is a separate alias of __mul__)
METHODS = [
    ("__mul__", "polyring.mul"),
    ("__rmul__", "polyring.mul"),
    ("mul_trunc", "polyring.mul_trunc"),
    ("pow", "polyring.pow"),
    ("__add__", "polyring.add"),
]


def _terms_out(counts, name):
    key = name + ".terms_out"

    def after(result, args, kwargs):
        counts[key] = counts.get(key, 0) + len(result.terms)
    return after


def _hooks(counts):
    """Counters taken from a traced call's arguments and result."""

    def haar_samples(result, args, kwargs):
        counts["haar.samples"] = counts.get("haar.samples", 0) + args[1]

    def lm_nfev(result, args, kwargs):
        counts["asymptotics.lm.nfev"] = counts.get("asymptotics.lm.nfev", 0) + result.nfev

    def config_hits(result, args, kwargs):
        counts["asymptotics.hits"] = counts.get("asymptotics.hits", 0) + sum(c.hits for c in result)

    return {
        "polyring.mul": _terms_out(counts, "polyring.mul"),
        "polyring.mul_trunc": _terms_out(counts, "polyring.mul_trunc"),
        "polyring.edge_op": _terms_out(counts, "polyring.edge_op"),
        "haar.sample": haar_samples,
        "asymptotics.lm": lm_nfev,
        "asymptotics.find_configs": config_hits,
    }


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")   # 1 unless a span of the same name encloses it
        self.raised: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.current_job = -1
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._saved: list = []

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, after=None):
        nid = self._intern(name)
        stack, active, raised = self._stack, self._active, self.raised
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        jobs, outer, clock = self.job, self.outer, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            depth = active.get(nid, 0)
            outer.append(depth == 0)
            active[nid] = depth + 1
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                raised[name] = raised.get(name, 0) + 1
                stack.pop()
                active[nid] = depth
                raise
            ends[i] = clock()
            stack.pop()
            active[nid] = depth
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from spinnets.polyring import MPoly

        hooks = _hooks(self.counts)
        for mod_name, attr, span in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn, hooks.get(span)))
        for attr, span in METHODS:
            fn = MPoly.__dict__[attr]
            self._saved.append((MPoly, attr, fn))
            setattr(MPoly, attr, self.wrap(span, fn, hooks.get(span)))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s."""
        n = len(self.name)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            if self.outer[i]:
                row["busy_s"] += dur * 1e-9
            row["self_s"] += (dur - covered[i]) * 1e-9
        return out

    def dump(self, path):
        """Write the span arrays: one JSON header line, then one line per span
        as name-id, start_ns, end_ns, parent, job."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields":
                                 ["name", "start_ns", "end_ns", "parent", "job"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.job):
                fh.write("%d %d %d %d %d\n" % row)
