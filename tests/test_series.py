import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_holonomy, shear_gauge, shear_gauges
from spinnets import series as series_module
from spinnets.errors import InputError
from spinnets.evaluator import gauge_transform
from spinnets.graphs import Graph, Holonomy
from spinnets.polyring import MPoly, Namespace, det_poly, inverse_series
from spinnets.rational import QQi, denominator, div_exact
from spinnets.series import (abelian_curve_sum, build_pq, compare_with_evaluations,
                             nonplanar_fix, pfaffian_dimer_sum, series_Z,
                             truncated_det, w1_matrix, westbury_polynomial)


def test_build_pq_structure(theta, tet):
    for g in (theta, tet):
        pq = build_pq(g)
        # at X = 0 the matrix is the edge pairing alone, entries in {0, +/-i}
        vals = {v for cols in pq.p.values() for v in cols.values()}
        assert vals <= {QQi(0, 1), QQi(0, -1)}
        for r, cols in pq.q.items():
            for c, poly in cols.items():
                assert poly.constant_term() == QQi(0)
        # det(P) = 1 exactly
        n = len(pq.basis)
        idx = {b: i for i, b in enumerate(pq.basis)}
        ns = pq.ns
        rows = [[MPoly.zero(ns) for _ in range(n)] for _ in range(n)]
        for r, cols in pq.p.items():
            for c, v in cols.items():
                rows[idx[r]][idx[c]] = MPoly.const(ns, v)
        assert det_poly(rows) == MPoly.const(ns, 1)


def test_det_constant_term_is_one(theta, tet):
    for g in (theta, tet):
        d = det_poly(build_pq(g).full())
        assert d.constant_term() == QQi(1)


def test_westbury_counts(theta, tet, prism):
    assert len(westbury_polynomial(theta).terms) == 1 + 3
    assert len(westbury_polynomial(tet).terms) == 1 + 4 + 3
    # prism: 2 triangles, 3 squares, 6 pentagons, 3 hexagons, 1 disjoint pair
    assert len(westbury_polynomial(prism).terms) == 1 + 15
    for g in (theta, tet, prism):
        assert westbury_polynomial(g).constant_term() == QQi(1)


def test_westbury_det_identity(theta, tet):
    for g in (theta, tet):
        assert det_poly(build_pq(g).full()) == westbury_polynomial(g).pow(4)


def test_truncated_det_matches_bareiss(theta, tet):
    for g, deg in ((theta, 8), (tet, 6)):
        pq = build_pq(g)
        assert truncated_det(pq, deg) == det_poly(pq.full()).truncated(deg)
    hol = random_holonomy(theta, seed=9)
    pq = build_pq(theta, hol)
    assert truncated_det(pq, 6) == det_poly(pq.full()).truncated(6)


def test_series_constant_coefficient(theta):
    z = series_Z(theta, degree=6)
    assert z.constant_term() == QQi(1)


def test_series_equals_westbury_inverse_square(theta):
    p = westbury_polynomial(theta)
    for degree in (10, 32):
        z = series_Z(theta, degree=degree)
        assert z == inverse_series((p * p).truncated(degree), degree)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(("theta", "tet", "prism")), degree=st.integers(0, 8),
       seed=st.integers(0, 2**16))
def test_int_ring_series_matches_gaussian_ring(theta, tet, prism, name, degree, seed):
    """The trivial-holonomy series runs on int; a shear gauge of the trivial
    holonomy (Gaussian-rational entries, the same series) runs on Gaussian
    integers after Q is scaled by a common denominator."""
    g = {"theta": theta, "tet": tet, "prism": prism}[name]
    hol = gauge_transform(g, Holonomy.trivial(g), shear_gauge(g, seed))
    assert any(x.im for m in hol.entries.values() for row in m for x in row)
    z = series_Z(g, None, degree)
    assert not any(isinstance(c, QQi) for c in z.terms.values())
    assert z == series_Z(g, hol, degree)


def _scaled(pq):
    """pq with Q multiplied by the common denominator D of its coefficients,
    and D."""
    den = lcm(*(denominator(c) for cols in pq.q.values()
                for poly in cols.values() for c in poly.terms.values()))
    return replace(pq, q={r: {c: poly.scalar_mul(den) for c, poly in cols.items()}
                          for r, cols in pq.q.items()}), den


def _on_gaussian_integers(poly):
    return all(type(c) is int or (type(c.re) is int and type(c.im) is int)
               for c in poly.terms.values())


def _check_scaled_det(pq, degree):
    """truncated_det on pq and on pq scaled to Gaussian integers, against the
    Bareiss determinant of the scaled matrix: det(P + D·Q) is det(P + Q)
    with X -> D·X."""
    scaled, den = _scaled(pq)
    bareiss = det_poly(scaled.full())
    deg = pq.ns.degree
    got = truncated_det(scaled, degree)
    assert _on_gaussian_integers(got)
    assert got == bareiss.truncated(degree)
    unscaled = MPoly(pq.ns, {k: div_exact(c, den ** deg(k)) for k, c in bareiss.terms.items()})
    assert truncated_det(pq, degree) == unscaled.truncated(degree)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(("theta", "tet")), seed=st.integers(0, 2**16), data=st.data())
def test_scaled_kernel_matches_ungauged_series(theta, tet, name, seed, data):
    """A random Gaussian-rational gauge of a random holonomy leaves the series
    unchanged, although series_Z scales Q by a different denominator."""
    g = {"theta": theta, "tet": tet}[name]
    degree = 6 if name == "theta" else 4
    hol = random_holonomy(g, seed=seed)
    gauged = gauge_transform(g, hol, data.draw(shear_gauges(g)))
    dets = []

    def spy(pq, max_degree):
        dets.append(truncated_det(pq, max_degree))
        return dets[-1]

    with mock.patch.object(series_module, "truncated_det", spy):
        z = series_Z(g, gauged, degree)
    # the determinant, and so the inverse square root, ran on Gaussian integers
    assert len(dets) == 1 and _on_gaussian_integers(dets[0])
    assert z == series_Z(g, hol, degree)
    if name == "theta":  # Bareiss on the tetrahedron is checked once, below
        _check_scaled_det(build_pq(g, gauged), degree)


def test_scaled_kernel_matches_bareiss_tet(tet):
    """truncated_det on the tetrahedron under a gauged random holonomy, with
    shear denominators 7 and 11, equals the Bareiss determinant."""
    hol = gauge_transform(tet, random_holonomy(tet, seed=5), shear_gauge(tet, 11, dens=(7, 11)))
    _check_scaled_det(build_pq(tet, hol), 4)


def _check_degree_bound(g, hol):
    """The Bareiss determinant of the scaled P + Q has total degree <= 4V,
    and truncated_det at 4V + j equals it for j in 0..3."""
    scaled, _ = _scaled(build_pq(g, hol))
    bound = 4 * len(g.vertices)
    bareiss = det_poly(scaled.full())
    assert bareiss.total_degree() <= bound
    for j in range(4):
        assert truncated_det(scaled, bound + j) == bareiss


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(("theta", "dumbbell")), seed=st.integers(0, 2**16), data=st.data())
def test_det_degree_bound(theta, dumbbell, name, seed, data):
    g = {"theta": theta, "dumbbell": dumbbell}[name]
    hol = gauge_transform(g, random_holonomy(g, seed=seed), data.draw(shear_gauges(g)))
    _check_degree_bound(g, hol)


def test_det_degree_bound_nonplanar(tetnp):
    # Bareiss takes about 2 s here with a holonomy: one example
    _check_degree_bound(tetnp, None)
    _check_degree_bound(tetnp, random_holonomy(tetnp, seed=4))


def test_routes_run_on_int_ring(theta, prism):
    """The westbury, curves and pfaffian polynomials and their inverted
    series carry no QQi coefficient and equal the det route."""
    for g, degree in ((theta, 24), (prism, 12)):
        w = westbury_polynomial(g)
        pf = pfaffian_dimer_sum(g)
        curves = abelian_curve_sum(g)
        z = series_Z(g, degree=degree)
        for poly in (w, pf, curves):
            assert not any(isinstance(c, QQi) for c in poly.terms.values())
        for poly in ((w * w).truncated(degree), (pf * pf).truncated(degree),
                     curves.truncated(degree)):
            inv = inverse_series(poly, degree)
            assert not any(isinstance(c, QQi) for c in inv.terms.values())
            assert inv == z


def test_series_matches_evaluations(theta, tet):
    rows = compare_with_evaluations(theta, None, series_Z(theta, degree=8), 8)
    assert rows and all(r[3] for r in rows)
    z = nonplanar_fix(series_Z(tet, degree=6), tet)
    rows = compare_with_evaluations(tet, None, z, 6)
    assert rows and all(r[3] for r in rows)


def test_series_nonadmissible_coefficients_vanish(theta):
    z = series_Z(theta, degree=7)
    ns = z.ns
    from spinnets.graphs import is_admissible
    for key in z.terms:
        exps = ns.decode(key)
        # reconstruct the edge coloring from angle exponents at vertex u
        a = exps.get("u:01", 0) + exps.get("u:02", 0)
        b = exps.get("u:01", 0) + exps.get("u:12", 0)
        c = exps.get("u:12", 0) + exps.get("u:02", 0)
        assert is_admissible(theta, {"e1": a, "e2": b, "e3": c})


def test_series_with_random_holonomy(theta):
    hol = random_holonomy(theta, seed=8)
    z = series_Z(theta, hol, degree=6)
    rows = compare_with_evaluations(theta, hol, z, 6)
    assert rows and all(r[3] for r in rows)


def test_pfaffian_equals_westbury(theta, tet, prism, dumbbell):
    for g in (theta, tet, prism, dumbbell):
        assert pfaffian_dimer_sum(g) == westbury_polynomial(g)


def test_pfaffian_square_equals_curves(theta, tet, dumbbell):
    for g in (theta, tet, dumbbell):
        pf = pfaffian_dimer_sum(g)
        assert pf * pf == abelian_curve_sum(g)


def test_curves_match_w1_determinant(theta, tet, dumbbell):
    rng = random.Random(17)
    for g in (theta, tet, dumbbell):
        for _ in range(3):
            t = {h: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for h in g.halfedges}
            ns, w1 = w1_matrix(g, t)
            assert abelian_curve_sum(g, t) == det_poly(w1)


def test_w1_determinant_stays_off_qqi(theta, prism):
    """det W1 runs on the int ring for t = 1 and on Fraction for rational t."""
    t = {h: Fraction(1) for h in prism.halfedges}
    t[prism.halfedges[0]] = Fraction(2, 3)
    for g, tt in ((theta, {h: 1 for h in theta.halfedges}), (prism, t)):
        d = det_poly(w1_matrix(g, tt)[1])
        assert not any(isinstance(c, QQi) for c in d.terms.values())
        assert d == abelian_curve_sum(g, tt)


def test_curves_constant_term_and_zero_t(theta):
    assert abelian_curve_sum(theta).constant_term() == QQi(1)
    t = {h: Fraction(1) for h in theta.halfedges}
    t["u1"] = Fraction(0)
    with pytest.raises(InputError):
        abelian_curve_sum(theta, t)


@pytest.mark.parametrize("bad", [QQi(1, 1), 0.1, True, "2", 0],
                         ids=["qqi", "float", "bool", "str", "zero"])
@pytest.mark.parametrize("route", [Holonomy.diagonal, abelian_curve_sum],
                         ids=["holonomy", "curves"])
def test_diagonal_t_is_checked(theta, route, bad):
    # a QQi was a TypeError; 0.1 was read as its binary fraction, True as 1
    t = {h: Fraction(1) for h in theta.halfedges}
    t["u1"] = bad
    with pytest.raises(InputError, match="u1"):
        route(theta, t)


def test_diagonal_holonomy_series_consistency(theta, dumbbell):
    rng = random.Random(23)
    for g in (theta, dumbbell):
        t = {h: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for h in g.halfedges}
        hol = Holonomy.diagonal(g, t)
        z = series_Z(g, hol, degree=8)
        assert z == inverse_series(abelian_curve_sum(g, t).truncated(8), 8)


def test_nonplanar_fix_identity_without_crossings(theta):
    z = series_Z(theta, degree=6)
    assert nonplanar_fix(z, theta) == z


def _half_sum_fix(poly, graph):
    """(id + Op_e1 + Op_e2 - Op_e1 Op_e2)/2 for every crossing, as four
    polynomials, where Op_e negates the two angles at the left endpoint of e."""
    def flip(p, e):
        angles = graph.angles_at_halfedge(graph.edge_by_id[e][0])
        return MPoly(p.ns, {k: -c if sum(p.ns.decode(k).get(a, 0) for a in angles) % 2 else c
                            for k, c in p.terms.items()})

    for e1, e2 in map(tuple, graph.crossings):
        poly = (poly + flip(poly, e1) + flip(poly, e2)
                - flip(flip(poly, e1), e2)).scalar_mul(Fraction(1, 2))
    return poly


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nonplanar_fix_is_the_half_sum_operator(tet, data):
    """The sign rule equals the half-sum operators on Gaussian-integer
    polynomials, for crossing sets that share edges as well as disjoint ones."""
    pairs = [list(p) for p in itertools.combinations(tet.edge_ids, 2)]
    crossings = data.draw(st.lists(st.sampled_from(pairs), max_size=4, unique_by=tuple))
    graph = Graph.from_obj({**tet.to_obj(), "crossings": crossings})
    ns = Namespace(graph.angle_ids)
    poly = MPoly.zero(ns)
    for _ in range(data.draw(st.integers(0, 8))):
        angles = data.draw(st.lists(st.sampled_from(graph.angle_ids), max_size=4))
        exps = {a: data.draw(st.integers(0, 3)) for a in angles}
        c = QQi(data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5)))
        poly = poly + MPoly.monomial(ns, exps, c)
    assert nonplanar_fix(poly, graph) == _half_sum_fix(poly, graph)


def test_nonplanar_fix_matches_evaluations(tetnp):
    z = nonplanar_fix(series_Z(tetnp, degree=6), tetnp)
    rows = compare_with_evaluations(tetnp, None, z, 6)
    assert rows and all(r[3] for r in rows)
    # without the fix some coefficients must differ on this presentation
    rows = compare_with_evaluations(tetnp, None, series_Z(tetnp, degree=6), 6)
    assert not all(r[3] for r in rows)


def test_series_float_holonomy_rejected(theta):
    hol = Holonomy(theta, {h: ((1.0, 0.0), (0.0, 1.0)) for h in theta.halfedges}, False)
    with pytest.raises(Exception):
        build_pq(theta, hol)
