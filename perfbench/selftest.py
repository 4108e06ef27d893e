"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py      (from the root of a checkout)

For every workload: the untraced and the traced run succeed with no failed
job and emit exactly the metrics BENCHMARK.json names (end-to-end ones
positive), the per-layer self times add up to the traced wall time, and a
run whose outputs are all corrupted counts every corrupted job as failed.
Run from a directory holding only BENCHMARK.json and perfbench/, the
benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def last_json(cmd):
    proc = subprocess.run([sys.executable] + cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        name = w["name"]
        common = ["--workload", name, "--seed", "7", "--seconds", "1", "--scale", "tiny"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = last_json([str(HERE / "run.py")] + common + ["--trace", str(trace)])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{name} trace {trace}: {out['failed']} of {out['attempted']} jobs failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            if not trace:
                expect(all(v["value"] > 0 for v in out["metrics"].values()),
                       f"{name}: an end-to-end metric is not positive")
            if trace:
                frac = out["metrics"]["trace.attributed_frac"]["value"]
                expect(0.95 <= frac <= 1.0 + 1e-9,
                       f"{name}: layer self times cover {frac:.4f} of the traced wall time")
        out = last_json([str(HERE / "child.py")] + common + ["--trace", "1", "--corrupt"])
        failed_frac = out["metrics"]["failed_frac"]["value"]
        expect(out["failed"] == out["jobs_per_pass"],
               f"{name}: {out['failed']} of {out['jobs_per_pass']} corrupted outputs caught")
        expect(failed_frac == out["failed"] / out["attempted"],
               f"{name}: failed_frac {failed_frac} is not failed / attempted")
        print(f"PASS  {name}: metrics complete; all {out['failed']} corrupted outputs "
              f"counted in failed_frac")

    scratch = HERE.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py"] + common, cwd=bare,
                              stdout=subprocess.PIPE, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program the benchmark must fail and print no result")
    finally:
        shutil.rmtree(bare)
    print("PASS  without the program: fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
