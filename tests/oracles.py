"""Independent oracles used only by the test suite.

These deliberately avoid the library's contraction path: the tetrahedron
oracle is the classical single-sum factorial formula, the naive edge
operator applies first-order derivatives one at a time, the naive
determinant is cofactor expansion, the spinor phase pairs 2x2 SU(2)
matrices with a Hopf spinor instead of multiplying quaternions, and the
report text is json.dumps of a rounded copy instead of the CLI's one-pass
writer.
"""

import json
from fractions import Fraction
from math import factorial

import numpy as np

from spinnets.evaluator import theta_value
from spinnets.polyring import MPoly

# bundled tetrahedron edge ids in the single-sum formula's positions:
# triples (A,B,E), (C,D,E), (A,D,F), (B,C,F) match vertices a, b, c, d
TET_POSITIONS = {"A": "ac", "B": "ad", "C": "bd", "D": "bc", "E": "ab", "F": "cd"}


def tet_single_sum(A, B, C, D, E, F) -> Fraction:
    """Classical single-sum value of the tetrahedral network with vertex
    triples (A,B,E), (C,D,E), (A,D,F), (B,C,F)."""
    a = [(A + B + E) // 2, (C + D + E) // 2, (A + D + F) // 2, (B + C + F) // 2]
    b = [(A + B + C + D) // 2, (A + C + E + F) // 2, (B + D + E + F) // 2]
    lo, hi = max(a), min(b)
    if lo > hi:
        return Fraction(0)
    total = Fraction(0)
    for s in range(lo, hi + 1):
        num = factorial(s + 1) * (-1 if s % 2 else 1)
        den = 1
        for ai in a:
            den *= factorial(s - ai)
        for bj in b:
            den *= factorial(bj - s)
        total += Fraction(num, den)
    pref = Fraction(1)
    for bj in b:
        for ai in a:
            pref *= factorial(bj - ai)
    for x in (A, B, C, D, E, F):
        pref /= factorial(x)
    return pref * total


def tet_value_oracle(coloring: dict) -> Fraction:
    """Exact value of the bundled tetrahedron network for an admissible coloring."""
    return tet_single_sum(*(coloring[TET_POSITIONS[k]] for k in "ABCDEF"))


def tet_bracket_oracle(coloring: dict) -> Fraction:
    """Exact squared-evaluation bracket of the bundled tetrahedron."""
    v = tet_value_oracle(coloring)
    den = Fraction(1)
    for tri in (("ac", "ad", "ab"), ("ab", "bd", "bc"), ("bc", "cd", "ac"), ("cd", "bd", "ad")):
        den *= theta_value(*(coloring[e] for e in tri))
    return v * v / den


def naive_edge_operator(p: MPoly, z1, w1, z2, w2, c: int) -> MPoly:
    """(1/c!^2) (d_z1 d_w2 - d_z2 d_w1)^c via repeated single derivatives."""

    def deriv(q: MPoly, name: str) -> MPoly:
        ns = q.ns
        sh = ns.shift(name)
        out = {}
        for k, coeff in q.terms.items():
            e = (k >> sh) & 63
            if e:
                kk = k - (1 << sh)
                cur = out.get(kk)
                val = coeff * e
                out[kk] = val if cur is None else cur + val
        return MPoly(ns, {k: v for k, v in out.items() if v})

    cur = p
    for _ in range(c):
        cur = deriv(deriv(cur, z1), w2) - deriv(deriv(cur, z2), w1)
    # set the four variables to zero: keep monomials free of them
    ns = cur.ns
    shifts = [ns.shift(v) for v in (z1, w1, z2, w2)]
    kept = {k: v for k, v in cur.terms.items() if all(((k >> s) & 63) == 0 for s in shifts)}
    return MPoly(ns, kept).scalar_mul(Fraction(1, factorial(c) ** 2))


def naive_det(m) -> MPoly:
    """Cofactor-expansion determinant."""
    n = len(m)
    if n == 1:
        return m[0][0]
    ns = m[0][0].ns
    total = MPoly.zero(ns)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = m[0][j] * naive_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def hopf_section(n):
    """A unit spinor over the unit vector n: |u1|^2-|u2|^2 = n_z and
    2 conj(u1) u2 = n_x + i n_y."""
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])


def spinor_phase(gv, gw, n) -> complex:
    """<gv u, gw u> for SU(2) matrices gv, gw and the Hopf spinor u over n."""
    u = hopf_section(n)
    return complex(np.vdot(gv @ u, gw @ u))


def _sanitize(obj):
    """Round floats to 10 significant digits, folding -0.0 into 0.0, and
    turn tuples into lists."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}") + 0.0
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_text(obj) -> str:
    """The text of a CLI report object, without its final newline."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2)
