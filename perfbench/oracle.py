"""Reference values the benchmark checks outputs against.

Nothing here calls the library: graphs are read from their JSON files, the
tetrahedron value is the classical single-sum (Racah) formula, theta norms
are the closed factorial formula, and prism3 values come from a table
recorded once from the exact evaluator (``prism3_c4.txt``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
PRISM3_TABLE = HERE / "prism3_c4.txt"


def graph_json(root: Path, name: str) -> dict:
    with open(root / "src" / "spinnets" / "data" / f"{name}.json") as fh:
        return json.load(fh)


def vertex_triples(graph: dict):
    """Edge-id triple at each vertex of a graph JSON object."""
    edge_of = {}
    for e in graph["edges"]:
        edge_of[e["left"]] = e["id"]
        edge_of[e["right"]] = e["id"]
    return [tuple(edge_of[h] for h in v["halfedges"]) for v in graph["vertices"]]


def admissible_triple(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and a <= b + c and b <= a + c and c <= a + b


def theta_norm(a: int, b: int, c: int) -> Fraction:
    """(s+1)! (s-a)! (s-b)! (s-c)! / (a! b! c!) with s = (a+b+c)/2."""
    s = (a + b + c) // 2
    num = factorial(s + 1) * factorial(s - a) * factorial(s - b) * factorial(s - c)
    return Fraction(num, factorial(a) * factorial(b) * factorial(c))


def bracket(triples, coloring: dict, value: Fraction) -> Fraction:
    """|value|^2 over the product of the vertex theta norms."""
    den = Fraction(1)
    for t in triples:
        den *= theta_norm(*(coloring[e] for e in t))
    return value * value / den


def tetrahedron_value(col: dict) -> Fraction:
    """Single-sum formula for the bundled tetrahedron.

    With A..F = ac, ad, bd, bc, ab, cd the vertex triples are (A,B,E),
    (C,D,E), (A,D,F), (B,C,F)."""
    A, B, C, D, E, F = (col[e] for e in ("ac", "ad", "bd", "bc", "ab", "cd"))
    vs = [(A + B + E) // 2, (C + D + E) // 2, (A + D + F) // 2, (B + C + F) // 2]
    fs = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    total = Fraction(0)
    for s in range(max(vs), min(fs) + 1):
        den = 1
        for x in vs:
            den *= factorial(s - x)
        for y in fs:
            den *= factorial(y - s)
        total += Fraction((-1) ** s * factorial(s + 1), den)
    pref = Fraction(1)
    for y in fs:
        for x in vs:
            pref *= factorial(y - x)
    for c in (A, B, C, D, E, F):
        pref /= factorial(c)
    return pref * total


def load_prism3_table():
    """{colors in edge order: value} for every admissible prism3 coloring
    with colors <= 4, plus the edge order."""
    with open(PRISM3_TABLE) as fh:
        lines = fh.read().split("\n")
    edges = lines[0].split()[1:]
    table = {}
    for line in lines[1:]:
        if line:
            key, value = line.split()
            table[tuple(int(ch) for ch in key)] = Fraction(value)
    return edges, table


def theta_w(y1: float, y2: float, y3: float, cutoff: int = 200) -> float:
    """Haar mean of prod_e 1/det(1 - y_e M_e) on theta with trivial holonomy.

    All three edge matrices equal g_u g_v^-1, so the mean is the sum of
    y1^a y2^b y3^c over admissible triples (each character triple integrates
    to 1 exactly when admissible)."""
    total = 0.0
    for a in range(cutoff):
        for b in range(cutoff - a):
            lo, hi = abs(a - b), a + b
            # sum of y3^c for c = lo, lo+2, ..., hi
            n = (hi - lo) // 2 + 1
            geo = y3 ** lo * (1 - y3 ** (2 * n)) / (1 - y3 * y3)
            total += y1 ** a * y2 ** b * geo
    return total
