"""Machine speed probe: fixed reference work timed in short bursts.

The machine this benchmark was built on is shared, and other tenants change
the speed of its CPUs by 20-50% within seconds and for minutes at a time; a
job timed in a slow phase reads slow however often it is repeated.  The
probe's work never changes and uses no code of the program, so a burst's
time measures the machine's speed at that moment.  Bursts run between jobs,
outside the job timings, and each job time is scaled by the mean of the
bursts around it: the result is the time the job takes at a fixed reference
speed.

Two kinds of reference work, chosen per workload to resemble its jobs:
``py`` multiplies sparse polynomials held as dicts of exponent tuples, the
way the exact layers do; ``np`` draws and normalises 20000 random 4-vectors with
numpy, as the Monte-Carlo layer does.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_A = {(i, j, (i * j) % 5): i + 2 * j + 1 for i in range(6) for j in range(6)}
_B = {(i, j, (i + j) % 3): 3 * i - j + 7 for i in range(6) for j in range(5)}


def _py_work(reps=4):
    out = {}
    for _ in range(reps):
        out = {}
        for (a1, a2, a3), x in _A.items():
            for (b1, b2, b3), y in _B.items():
                k = (a1 + b1, a2 + b2, a3 + b3)
                out[k] = out.get(k, 0) + x * y
    return out


def _np_work(n=20000):
    x = np.random.default_rng(12345).standard_normal((4, n))
    x /= np.linalg.norm(x, axis=0)
    return float((x * x[::-1]).sum(axis=0).mean())


WORK = {"py": _py_work, "np": _np_work}
# a burst's time at the reference speed: about the median on the 2-CPU
# Xeon machine the benchmark was built on
REFERENCE_S = {"py": 1.6e-3, "np": 3.0e-3}
WINDOW_S = 0.5
EVERY_S = 0.05  # least gap between bursts before jobs


class SpeedProbe:
    """Bursts of the reference work `kinds`, each timed as a whole."""

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.reference_s = sum(REFERENCE_S[k] for k in self.kinds)
        self.at: list = []       # perf_counter() at the start of each burst
        self.burst_s: list = []

    def maybe(self):
        """A burst if EVERY_S has passed since the last one ended."""
        if not self.at or time.perf_counter() - self.at[-1] - self.burst_s[-1] >= EVERY_S:
            self.burst()

    def burst(self):
        t0 = time.perf_counter()
        for k in self.kinds:
            WORK[k]()
        self.at.append(t0)
        self.burst_s.append(time.perf_counter() - t0)

    def scale(self, start, seconds):
        """`seconds` of work that began at perf_counter() `start`, at the
        reference speed: scaled by the mean of the bursts from `reach` before
        it to `reach` after it, where `reach` is its own length but at least
        WINDOW_S.  A burst ends less than EVERY_S before every job starts,
        and three precede every set-up, so the window is never empty.

        The speed flips between a fast and a slow state within seconds, so a
        mean over time, not a median, matches what a job lived through."""
        reach = max(WINDOW_S, seconds)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, start + seconds + reach)
        return seconds * self.reference_s / statistics.fmean(self.burst_s[lo:hi])
