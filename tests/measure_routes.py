"""Time the enumerations behind the series routes and the check.

    PYTHONPATH=src python tests/measure_routes.py

The planar prisms prism_graph(n), n = 3..8: the term count and the time
of westbury_polynomial, pfaffian_dimer_sum and abelian_curve_sum, each one
run; where the curve walk passes TERM_BUDGET in steps, the time to its
refusal instead.  The bundled graphs: the number of admissible colorings and
the best of five enumerations, every color <= 4 and total <= 8.
"""

import time

from conftest import prism_graph
from spinnets import bundled_graph_path, load_graph
from spinnets.cli import _BUNDLED
from spinnets.errors import ResourceError
from spinnets.graphs import admissible_colorings
from spinnets.series import abelian_curve_sum, pfaffian_dimer_sum, westbury_polynomial


def timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    return out, (time.perf_counter() - start) * 1e3


for n in range(3, 9):
    graph = prism_graph(n)
    cells = []
    for route in (westbury_polynomial, pfaffian_dimer_sum, abelian_curve_sum):
        start = time.perf_counter()
        try:
            got = f"{len(route(graph).terms)} terms"
        except ResourceError:
            got = "refused"
        cells.append(f"{route.__name__} {got} {(time.perf_counter() - start) * 1e3:.1f} ms")
    print(f"prism V={2 * n}: " + ", ".join(cells))

for name in _BUNDLED:
    graph = load_graph(bundled_graph_path(name))
    for bounds in ({"max_color": 4}, {"max_total": 8}):
        count = len(list(admissible_colorings(graph, **bounds)))
        ms = min(timed(lambda: list(admissible_colorings(graph, **bounds)))[1] for _ in range(5))
        bound = ", ".join(f"{k} {v}" for k, v in bounds.items())
        print(f"{name} {bound}: {count} colorings {ms:.2f} ms")
