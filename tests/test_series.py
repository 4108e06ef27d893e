import gc
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_signature, assert_same_series, graph_obj, presentations, prism_graph,
                      random_holonomy, random_presentation, shear_gauge, shear_gauges)
from oracles import (admissible_colorings_brute, curve_sum_walk, diagonal_holonomy, monomial,
                     pq_full, truncated, truncated_det_entrywise, w1_matrix, westbury_by_subsets)
from spinnets import polyring
from spinnets import series as series_module
from spinnets.errors import InputError, RegimeError
from spinnets.evaluator import eval_spin_network, renormalize
from spinnets.graphs import Graph, Holonomy, gauge_transform, internal_coloring
from spinnets.polyring import MPoly, Namespace, det_poly, inverse_series
from spinnets.rational import QQi, denominator, div_exact
from spinnets.series import (PQMatrices, abelian_curve_sum, build_pq, compare_with_evaluations,
                             nonplanar_fix, pfaffian_dimer_sum, series_Z,
                             truncated_det, westbury_polynomial)


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
        d = det_poly(pq_full(build_pq(g)))
        assert d.constant_term() == QQi(1)


def test_westbury_counts(theta, tet, prism):
    assert len(westbury_polynomial(theta).terms) == 1 + 3
    assert len(westbury_polynomial(tet).terms) == 1 + 4 + 3
    # prism: 2 triangles, 3 squares, 6 pentagons, 3 hexagons, 1 disjoint pair
    assert len(westbury_polynomial(prism).terms) == 1 + 15
    for g in (theta, tet, prism):
        assert westbury_polynomial(g).constant_term() == QQi(1)


def test_westbury_terms_span_the_cycle_space():
    # one term per element of the cycle space, 2^(E - V + 1); a loop over
    # all 2^E edge subsets takes tens of seconds at n = 8
    for n in range(3, 9):
        g = prism_graph(n)
        assert len(westbury_polynomial(g).terms) == 2 ** (len(g.edges) - len(g.vertices) + 1)


@settings(max_examples=60, deadline=None)
@given(g=presentations(8).filter(lambda g: not g.genus))
def test_westbury_matches_the_subset_oracle_on_random_presentations(g):
    # loops, multi-edges and crossings, on genus-0 rotation systems
    assert westbury_polynomial(g) == westbury_by_subsets(g)


def test_westbury_det_identity(theta, tet):
    for g in (theta, tet):
        assert det_poly(pq_full(build_pq(g))) == westbury_polynomial(g).pow(4)


def test_truncated_det_matches_bareiss(theta, tet):
    for g, deg in ((theta, 8), (tet, 6)):
        pq = build_pq(g)
        assert truncated_det(pq, deg) == truncated(det_poly(pq_full(pq)), deg)
    hol = random_holonomy(theta, seed=9)
    pq = build_pq(theta, hol)
    assert truncated_det(pq, 6) == truncated(det_poly(pq_full(pq)), 6)


@settings(max_examples=60, deadline=None)
@given(g=presentations(4), kind=st.sampled_from(("trivial", "shear", "random")),
       degree=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_truncated_det_matches_the_entrywise_oracle(g, kind, degree, seed):
    """The row kernel, on ints or residues, against the entry-wise kernel
    on the coefficient objects, term by term with their types: on Q as
    built, which the kernel scales to Gaussian integers itself and the
    oracle runs on Fraction parts, and on Q scaled by its denominator."""
    hol = {"trivial": None,
           "shear": gauge_transform(g, Holonomy.trivial(g), shear_gauge(g, seed)),
           "random": random_holonomy(g, seed=seed)}[kind]
    pq = build_pq(g, hol)
    assert_same_series(truncated_det(pq, degree), truncated_det_entrywise(pq, degree))
    scaled, _ = _scaled(pq)
    assert_same_series(truncated_det(scaled, degree), truncated_det_entrywise(scaled, degree))


def _diagonal_pq(ns, z, w):
    """P of one edge between half-edges 1 and 2, as build_pq writes it, and
    Q diagonal: the variable z on the z rows, w on the w rows; then
    det(P + Q) = (1 + z·w)^2, and for z = w, B's powers carry z alone."""
    i = QQi(0, 1)
    basis = ("z1", "w1", "z2", "w2")
    p = {"z1": {"w2": i}, "w2": {"z1": i}, "z2": {"w1": -i}, "w1": {"z2": -i}}
    q = {b: {b: MPoly.var(ns, z if b[0] == "z" else w)} for b in basis}
    return PQMatrices(ns, basis, p, q)


def test_truncated_det_past_the_exponent_bound():
    """48 variables cap the degree at 64, past MAX_EXPONENT = 63, so each
    product is checked: tr(B^64) = 4·x0^64 when B carries x0 alone, and
    the kernel refuses it with the InputError of a product past the bound,
    as the entry-wise kernel does; (x0·x1)^32 passes.  At degree 63 no
    exponent can pass the bound and nothing is checked."""
    ns = Namespace(f"x{j}" for j in range(48))
    one_var, two_vars = _diagonal_pq(ns, "x0", "x0"), _diagonal_pq(ns, "x0", "x1")
    for kernel in (truncated_det, truncated_det_entrywise):
        with pytest.raises(InputError, match="past the exponent bound 63"):
            kernel(one_var, 64)
    z, w = MPoly.var(ns, "x0"), MPoly.var(ns, "x1")
    one = MPoly.const(ns, 1)
    assert truncated_det(two_vars, 64) == (one + z * w).pow(2)
    assert_same_series(truncated_det(two_vars, 64), truncated_det_entrywise(two_vars, 64))
    assert truncated_det(one_var, 63) == (one + z * z).pow(2)
    assert_same_series(truncated_det(one_var, 63), truncated_det_entrywise(one_var, 63))


def test_negative_degree_is_refused(theta):
    # series_Z and inverse_series raised IndexError; truncated_det returned 1
    from spinnets.polyring import inv_sqrt_series

    d = westbury_polynomial(theta)
    for call, name in ((lambda: series_Z(theta, degree=-1), "truncated_det"),
                       (lambda: truncated_det(build_pq(theta), -1), "truncated_det"),
                       (lambda: inverse_series(d, -1), "inverse_series"),
                       (lambda: inv_sqrt_series(d, -2), "inv_sqrt_series")):
        with pytest.raises(InputError, match=f"{name} needs a degree >= 0"):
            call()
    assert series_Z(theta, degree=0).terms == {0: 1}


def test_series_constant_coefficient(theta):
    z = series_Z(theta, degree=6)
    assert z.constant_term() == QQi(1)


def test_series_equals_westbury_inverse_square(theta):
    p = westbury_polynomial(theta)
    for degree in (10, 32):
        z = series_Z(theta, degree=degree)
        assert z == inverse_series(truncated(p * p, degree), degree)


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
    bareiss = det_poly(pq_full(scaled))
    deg = pq.ns.degree
    got = truncated_det(scaled, degree)
    assert _on_gaussian_integers(got)
    assert got == truncated(bareiss, degree)
    unscaled = MPoly(pq.ns, {k: div_exact(c, den ** deg(k)) for k, c in bareiss.terms.items()})
    assert truncated_det(pq, degree) == truncated(unscaled, degree)


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
    bareiss = det_poly(pq_full(scaled))
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
        for poly in (truncated(w * w, degree), truncated(pf * pf, degree),
                     truncated(curves, degree)):
            inv = inverse_series(poly, degree)
            assert not any(isinstance(c, QQi) for c in inv.terms.values())
            assert inv == z


def test_series_matches_evaluations(theta, tet):
    rows = compare_with_evaluations(theta, None, series_Z(theta, degree=8), 8)
    assert rows and all(r[3] for r in rows)
    z = nonplanar_fix(series_Z(tet, degree=6), tet)
    rows = compare_with_evaluations(tet, None, z, 6)
    assert rows and all(r[3] for r in rows)


@pytest.mark.parametrize("holonomy", ["none", "random", "gauge"])
def test_check_rows_match_the_per_row_reference(theta, tet, tetnp, dumbbell, holonomy):
    degree = 6
    for g in (theta, tet, tetnp, dumbbell):
        hol = {"none": None, "random": random_holonomy(g, seed=5),
               "gauge": gauge_transform(g, Holonomy.trivial(g), shear_gauge(g, 6))}[holonomy]
        z = nonplanar_fix(series_Z(g, hol, degree), g)
        rows = compare_with_evaluations(g, hol, z, degree)
        assert [r[0] for r in rows] == admissible_colorings_brute(g, max_total=degree)
        for col, coeff, expect, ok in rows:
            want_coeff = z.coefficient({a: c for a, c in internal_coloring(g, col).items() if c})
            want = renormalize(g, col, eval_spin_network(g, col, hol))
            assert (coeff, expect, ok) == (want_coeff, want, want_coeff == want)
            assert _signature(coeff) == _signature(want_coeff)
            assert _signature(expect) == _signature(want)


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
        assert pfaffian_dimer_sum(g) == westbury_polynomial(g) == westbury_by_subsets(g)


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
            assert abelian_curve_sum(g, diagonal_holonomy(g, t)) == det_poly(w1)


def test_w1_determinant_stays_off_qqi(theta, prism):
    """det W1 runs on the int ring for t = 1 and on Fraction for rational t."""
    t = {h: Fraction(1) for h in prism.halfedges}
    t[prism.halfedges[0]] = Fraction(2, 3)
    for g, tt in ((theta, {h: 1 for h in theta.halfedges}), (prism, t)):
        d = det_poly(w1_matrix(g, tt)[1])
        assert not any(isinstance(c, QQi) for c in d.terms.values())
        assert d == abelian_curve_sum(g, diagonal_holonomy(g, tt))


def _assert_same_terms(got: MPoly, want: MPoly):
    assert got == want
    assert {k: type(c) for k, c in got.terms.items()} == {
        k: type(c) for k, c in want.terms.items()}


def test_curve_sum_matches_walk_oracle(theta, tet, prism, tetnp, dumbbell):
    """The walk's prunes and the component product drop only branches that
    reach no cover: the sum equals the oracle's full walk term for term,
    coefficient types included, on the fixtures, two prisms in a line
    presentation with crossings and random presentations with loops (two,
    three, two and one), with no holonomy, int and Fraction diagonal ones
    and a Gaussian-rational anti-diagonal one."""
    rng = random.Random(29)
    looped = [random_presentation(v, seed) for v, seed in ((2, 201), (4, 405), (6, 607), (8, 801))]
    for g in (theta, tet, prism, tetnp, dumbbell, prism_graph(3), prism_graph(4), *looped):
        anti = {}
        for h in g.halfedges:
            x = QQi(Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            anti[h] = ((0, x), (-1 / x, 0))
        holonomies = (
            None,
            diagonal_holonomy(g, {h: rng.choice((-1, 1)) * rng.randint(1, 3)
                                  for h in g.halfedges}),
            diagonal_holonomy(g, {h: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                              rng.randint(1, 5)) for h in g.halfedges}),
            Holonomy(g, anti))
        for hol in holonomies:
            _assert_same_terms(abelian_curve_sum(g, hol), curve_sum_walk(g, hol))


@settings(max_examples=40, deadline=None)
@given(g=presentations(4), data=st.data())
def test_curve_sum_matches_walk_oracle_on_random_presentations(g, data):
    t = data.draw(st.none() | st.fixed_dictionaries(
        {h: st.fractions(-4, 4, max_denominator=4).filter(bool) for h in g.halfedges}))
    hol = None if t is None else diagonal_holonomy(g, t)
    _assert_same_terms(abelian_curve_sum(g, hol), curve_sum_walk(g, hol))


def test_blown_up_enumerations_leave_no_garbage(prism):
    """abelian_curve_sum and pfaffian_dimer_sum delete their recursive
    closures, so a call leaves no reference cycle, and with it none of its
    memo, to the cyclic collector."""
    for g in (prism, random_presentation(6, 607)):
        gc.collect()
        gc.disable()
        try:
            for route in (abelian_curve_sum, pfaffian_dimer_sum):
                route(g)
                assert gc.collect() == 0, route.__name__
        finally:
            gc.enable()


def test_pruned_curve_walk_completes_under_a_lowered_budget(monkeypatch):
    """The pruned walk on prism_graph(5) takes 100944 steps (897816
    without its prunes), inside a budget of 200000.  The prism's line
    presentation has crossings, so the sum is the square of the cycle
    polynomial after the sign fix."""
    g = prism_graph(5)
    monkeypatch.setattr(polyring, "TERM_BUDGET", 200_000)
    w = westbury_polynomial(g)
    assert nonplanar_fix(abelian_curve_sum(g), g) == w * w


def test_curves_constant_term_and_zero_t(theta):
    assert abelian_curve_sum(theta).constant_term() == QQi(1)
    # diag(t, 1/t) has no t = 0; the cell diag(0, 1) fails Holonomy's determinant check
    cells = dict.fromkeys(theta.halfedges, ((1, 0), (0, 1)))
    cells["u1"] = ((0, 0), (0, 1))
    with pytest.raises(InputError, match="u1"):
        abelian_curve_sum(theta, Holonomy(theta, cells))


def test_diagonal_holonomy_series_consistency(theta, dumbbell):
    rng = random.Random(23)
    for g in (theta, dumbbell):
        t = {h: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for h in g.halfedges}
        hol = diagonal_holonomy(g, t)
        z = series_Z(g, hol, degree=8)
        assert z == inverse_series(truncated(abelian_curve_sum(g, hol), 8), 8)


@pytest.mark.parametrize("graph", ["theta", "dumbbell", "tet"])
def test_curve_sum_reads_the_angle_forms(request, graph):
    """The curve route reads a holonomy through its angle forms: any whose
    forms pair each z with a w only, here Gaussian-rational diagonal and
    anti-diagonal ones, gives the det route's series; a form with a z z or
    w w term is refused naming its angle, a floating holonomy by regime, and
    None is the trivial holonomy, coefficient types included."""
    g = request.getfixturevalue(graph)
    rng = random.Random(41)
    degree = 6
    for anti in (False, True):
        cells = {}
        for h in g.halfedges:
            x = QQi(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            cells[h] = ((0, x), (-1 / x, 0)) if anti else ((x, 0), (0, 1 / x))
        hol = Holonomy(g, cells)
        curves = abelian_curve_sum(g, hol)
        assert any(isinstance(c, QQi) for c in curves.terms.values())
        assert inverse_series(truncated(curves, degree), degree) == series_Z(g, hol, degree)
    with pytest.raises(InputError, match="angle") as info:
        abelian_curve_sum(g, random_holonomy(g, seed=9))
    assert any(repr(a) in str(info.value) for a in g.angle_ids)
    floating = Holonomy(g, dict.fromkeys(g.halfedges, ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(RegimeError):
        abelian_curve_sum(g, floating)
    _assert_same_terms(abelian_curve_sum(g), abelian_curve_sum(g, Holonomy.trivial(g)))


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
    graph = Graph.from_obj({**graph_obj(tet), "crossings": crossings})
    ns = Namespace(graph.angle_ids)
    poly = MPoly.zero(ns)
    for _ in range(data.draw(st.integers(0, 8))):
        angles = data.draw(st.lists(st.sampled_from(graph.angle_ids), max_size=4))
        exps = {a: data.draw(st.integers(0, 3)) for a in angles}
        c = QQi(data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5)))
        poly = poly + monomial(ns, exps, c)
    assert nonplanar_fix(poly, graph) == _half_sum_fix(poly, graph)


def test_nonplanar_fix_matches_evaluations(tetnp):
    z = nonplanar_fix(series_Z(tetnp, degree=6), tetnp)
    rows = compare_with_evaluations(tetnp, None, z, 6)
    assert rows and all(r[3] for r in rows)
    # without the fix some coefficients must differ on this presentation
    rows = compare_with_evaluations(tetnp, None, series_Z(tetnp, degree=6), 6)
    assert not all(r[3] for r in rows)


def test_series_float_holonomy_rejected(theta):
    hol = Holonomy(theta, {h: ((1.0, 0.0), (0.0, 1.0)) for h in theta.halfedges})
    with pytest.raises(Exception):
        build_pq(theta, hol)


@settings(max_examples=50, deadline=None)
@given(g=presentations(4), seed=st.integers(0, 2**16))
def test_routes_agree_on_random_presentations(g, seed):
    # loops, multi-edges, crossings and genus-1 rotation systems; det and
    # curves carry the crossing signs that nonplanar_fix turns into the
    # true series, and westbury counts cycles, which is the series only on
    # genus 0
    degree = 6
    hol = random_holonomy(g, seed=seed)
    det = nonplanar_fix(series_Z(g, None, degree), g)
    for h, series in ((None, det), (hol, nonplanar_fix(series_Z(g, hol, degree), g))):
        rows = compare_with_evaluations(g, h, series, degree)
        assert all(ok for _, _, _, ok in rows), [r for r in rows if not r[3]]
    assert nonplanar_fix(inverse_series(abelian_curve_sum(g), degree), g) == det
    if g.genus:
        with pytest.raises(RegimeError):
            westbury_polynomial(g)
    else:
        w = westbury_polynomial(g)
        assert pfaffian_dimer_sum(g) == w
        assert inverse_series(w * w, degree) == det
