"""Time the contraction plan and the evaluations it serves.

    PYTHONPATH=src python tests/measure_plans.py

Prints three blocks, times in ms:

- random loop-free presentations (random_presentation, seed 100V + s) with
  every color 4: the time to plan, the time of the one evaluation and the
  largest factor the edge kernel returns (or that it passed the term
  budget);
- the planar prisms at V = 8, 10 and 12: the time to plan and the best of
  five runs over 200 admissible colorings, a random.Random(0) sample of
  those with every color <= 2;
- loop-free presentations at V = 40, 60 and 100 (seed 100V + 1): the best
  of three times to build a fresh plan, none evaluated.
"""

import random
import time

from conftest import prism_graph, random_presentation
from spinnets import evaluator, polyring
from spinnets.errors import ResourceError
from spinnets.graphs import admissible_colorings

largest = [0]


def spy(factors, *args):
    out = polyring.apply_edge_operator(factors, *args)
    largest[0] = max(largest[0], len(out.terms))
    return out


def timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return (time.perf_counter() - start) * 1e3


evaluator.apply_edge_operator = spy
for seed in (1201, 1202, 1601, 1602, 1603, 2001, 2002, 2401, 2402, 2403):
    graph = random_presentation(seed // 100, seed, loops=False)
    plan_ms = timed(evaluator._plan, graph)
    largest[0] = 0
    try:
        run_ms = timed(evaluator.eval_spin_network, graph, dict.fromkeys(graph.edge_ids, 4))
        peak = f"peak {largest[0]} terms"
    except ResourceError:
        run_ms, peak = float("nan"), "over the term budget"
    print(f"V={seed // 100} s{seed % 100}: plan {plan_ms:.1f} ms, run {run_ms:.1f} ms, {peak}")
evaluator.apply_edge_operator = polyring.apply_edge_operator

for n in (4, 5, 6):
    graph = prism_graph(n)
    colorings = random.Random(0).sample(list(admissible_colorings(graph, max_color=2)), 200)
    plan_ms = timed(evaluator._plan, graph)
    run_ms = min(timed(lambda: [evaluator.eval_spin_network(graph, c) for c in colorings])
                 for _ in range(5))
    print(f"prism V={2 * n}: plan {plan_ms:.1f} ms, 200 colorings {run_ms:.1f} ms")

for n in (40, 60, 100):
    graph = random_presentation(n, 100 * n + 1, loops=False)
    plan_ms = min(timed(evaluator._Plan, graph) for _ in range(3))
    print(f"V={n}: plan {plan_ms:.1f} ms (best of 3)")
