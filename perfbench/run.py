"""spinnets benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh child process (child.py) that calls
`spinnets.cli.dispatch` in-process, one call per job, and checks every
output.  With --trace 0 the last stdout line carries the end-to-end metrics,
as times at the fixed reference speed of a machine speed probe (speed.py);
setup_s is the median set-up time of the fresh set-up processes the child
starts between its passes.
With --trace 1 the child makes untraced passes and then traced passes, and
the line carries the per-layer metrics; the span record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def spawn(args, deadline):
    """Run child.py; its parsed last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at reduced size (self-test)")
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "spinnets" / "cli.py").is_file():
        print("error: run from the root of a spinnets checkout (src/spinnets/cli.py "
              "not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    try:
        out = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
