import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import curvature as cv
from framelab import ghlab as gh
from framelab import holonomy as hl
from framelab import metric as mt

from conftest import dipping_cone_pair


def test_fms_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    gh.FiniteMetricSpace(["a", "b"], d).validate()
    bad = np.array([[0.0, 1.0], [1.0, 0.1]])
    with pytest.raises(ValueError):
        gh.FiniteMetricSpace(["a", "b"], bad).validate()
    tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        gh.FiniteMetricSpace(list("abc"), tri).validate()


def test_fms_csv_round_trip():
    """`to_csv` writes the labels, then one row per point, every distance
    as its repr, so the text reads back exactly."""
    d = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 1.1], [2.0, 1.1, 0.0]]) / 3.0
    text = gh.FiniteMetricSpace(list("abc"), d).to_csv()
    header, *rows = text.splitlines()
    assert header == "a,b,c" and text.endswith("\n")
    assert np.array_equal([[float(v) for v in row.split(",")] for row in rows], d)


def test_sample_flat_square_three_percent(rng):
    flat = mt.flat_euclidean(2)
    res = gh.sample_space(flat, [(0, 1), (0, 1)], 100, rng=rng, refine_pairs=True)
    pts = res.layout.points[res.layout.chosen]
    d_true = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    rel = np.abs(res.space.d - d_true) / np.maximum(d_true, 1e-12)
    np.fill_diagonal(rel, 0.0)
    assert rel.max() <= 0.03
    assert res.fill_radius < 0.3
    res.space.validate(tol=1e-8)


def test_rescaled_distances_scale_exactly(rng):
    flat = mt.flat_euclidean(2)
    res = gh.sample_space(flat, [(0, 1), (0, 1)], 40, rng=rng)
    res2 = gh.sample_space(mt.rescaled(flat, 3.0), [(0, 1), (0, 1)], 40,
                           layout=res.layout)
    assert np.abs(res2.space.d - 3.0 * res.space.d).max() <= 1e-12 * res2.space.d.max()


def test_cone_antipodal_distances_match_closed_form():
    a = 0.7
    cone = mt.exact_cone(a, r_min=1e-6, r_max=4.0)
    rng = np.random.default_rng(2)
    res = gh.sample_space(cone, [(0.3, 1.6), (0.0, 2 * math.pi)], 26, rng=rng,
                          refine_pairs=True)
    pts = res.layout.points[res.layout.chosen]
    n = len(pts)
    checked = 0
    for i in range(n):
        for j in range(i + 1, n):
            dphi = abs(pts[i, 1] - pts[j, 1]) % (2 * math.pi)
            dphi = min(dphi, 2 * math.pi - dphi)
            if pts[i, 0] > 1.0 and pts[j, 0] > 1.0 and dphi > 0.8 * math.pi:
                cf = gh.cone_distance(a, pts[i], pts[j])
                assert abs(cf - res.space.d[i, j]) <= 0.03 * cf
                checked += 1
    assert checked >= 5


@pytest.mark.parametrize("refine", ["refine_pairs"])
def test_programming_errors_in_shots_propagate(refine, monkeypatch):
    # only a failed shot (RuntimeError) falls back to graph or chord lengths
    def broken(*args, **kwargs):
        raise TypeError("broken shot")

    monkeypatch.setattr(gh, "geodesic_between", broken)
    with pytest.raises(TypeError, match="broken shot"):
        gh.sample_space(mt.exact_cone(0.7), [(0.3, 1.6), (0.0, 2 * math.pi)], 6,
                        rng=np.random.default_rng(2), **{refine: True})


def test_errors_in_the_inside_check_propagate(monkeypatch):
    """A fault in the test that a shot stays in the chart, here in the
    stepper's stacked `in_domain` call, propagates; a check that caught
    every exception once read as "leaves the chart" and left distances up
    to 17% long."""
    in_domain = mt.MetricSpec.in_domain

    def broken(self, point, tol=0.0, wrap=False):
        if tol == cv.DOMAIN_TOL:
            raise TypeError("broken chart test")
        return in_domain(self, point, tol, wrap)

    monkeypatch.setattr(mt.MetricSpec, "in_domain", broken)
    with pytest.raises(TypeError, match="broken chart test"):
        gh.sample_space(mt.exact_cone(0.7), [(0.3, 1.6), (0.0, 2 * math.pi)], 10,
                        rng=np.random.default_rng(2), refine_pairs=True)


def test_pairs_are_shot_in_one_stack(monkeypatch):
    """The refined pairs of a sample are one stacked shot, and its Newton
    passes are every integration: a converged shot is not integrated
    again to test the chart, since its final pass did."""
    shots = []
    original = gh.geodesic_between

    def counted(m, p, q, *args, **kwargs):
        shots.append(len(p))
        return original(m, p, q, *args, **kwargs)

    monkeypatch.setattr(gh, "geodesic_between", counted)
    passes = []
    original_ivp = cv.geodesic_ivp
    monkeypatch.setattr(cv, "geodesic_ivp",
                        lambda m, p, v, *a, **k: passes.append((len(p), k))
                        or original_ivp(m, p, v, *a, **k))
    gh.sample_space(mt.exact_cone(0.7), [(0.3, 1.6), (0.0, 2 * math.pi)], 8,
                    rng=np.random.default_rng(2), refine_pairs=True)
    assert len(shots) == 1 and shots[0] > 1
    assert not hasattr(gh, "geodesic_ivp")
    rows = [b for b, _ in passes]
    assert rows[0] == shots[0] and rows == sorted(rows, reverse=True)
    assert all(k == {"rtol": 1e-7, "atol": 1e-9, "variational": True} for _, k in passes)


def _dipping_layout():
    """A sample layout of two chosen points whose shot dips out of the
    chart (`dipping_cone_pair`), joined by a graph path through (2, 3)."""
    p, q, r_min, length, _ = dipping_cone_pair()
    points = np.array([p, q, [2.0, 3.0]])
    edges = np.array([[0, 2], [1, 2]])
    layout = gh.GraphLayout(points, edges, np.array([0, 1]), edge_shifts=np.zeros((2, 2)))
    return layout, r_min, length


def test_every_candidate_chord_is_tested_against_the_chart_in_one_call(monkeypatch):
    """Pair refinement tests the 12 points a + t (b - a) of every pair's
    chord in one stacked `in_domain` call, and measures the chords of just
    the pairs whose points all lie in the chart."""
    # phi is 2 pi periodic, but the chart leaves out phi in (5.9, 2 pi)
    cone = dataclasses.replace(mt.exact_cone(0.7), domain=[(0.5, 3.0), (0.0, 5.9)])
    pts = np.array([[0.6, 0.4], [1.4, 5.8], [1.0, 1.0], [0.8, 3.0]])
    calls, measured = [], []
    in_domain, curve_length = cone.in_domain, gh.curve_length

    def recorded(X, tol=0.0, wrap=False):
        calls.append((np.shape(X), tol, wrap))
        return in_domain(X, tol=tol, wrap=wrap)

    def measuring(m, a, b, samples):
        measured.append(a)
        return curve_length(m, a, b, samples)

    monkeypatch.setattr(cone, "in_domain", recorded)
    monkeypatch.setattr(gh, "curve_length", measuring)
    monkeypatch.setattr(gh, "_is_flat_on", lambda m, pts, rng: True)
    gh._refine_pair_distances(cone, pts, np.full((4, 4), 10.0), rng=None)
    assert calls == [((12 * 6, 2), 1e-12, True)]
    # the nearest representatives of (0, 1) and (1, 2) lie across phi = 0,
    # so their chords cross the gap (5.9, 2 pi)
    assert len(measured) == 1
    assert measured[0].tolist() == pts[[0, 0, 1, 2]].tolist()


def test_a_shot_that_leaves_the_chart_keeps_the_graph_or_chord_value():
    layout, r_min, length = _dipping_layout()
    region = [(0.3, 1.6), (0.0, 2 * math.pi)]
    cone = mt.exact_cone(0.7, r_min=r_min)
    graph = gh.sample_space(cone, region, 2, layout=layout).space.d[0, 1]
    chord = cv.curve_length(cone, layout.points[0], layout.points[1], 32)
    assert length < chord < graph * (1 - 5e-3)
    refined = gh.sample_space(cone, region, 2, layout=layout, refine_pairs=True).space.d
    assert refined[0, 1] == chord
    # down to the vertex, the same shot stays in the chart and replaces it
    whole = gh.sample_space(mt.exact_cone(0.7), region, 2, layout=layout, refine_pairs=True)
    assert whole.space.d[0, 1] == pytest.approx(length, rel=1e-6)


def test_eh_comparison_raises_when_a_shot_leaves_the_chart(monkeypatch):
    """With the chart's r bound 0.1 below the lowest annulus point, every
    point lies inside, and a shot whose geodesic passes nearer the bolt
    fails its pair."""
    lam, count, seed = 8.0, 3, 0
    pts = gh.eguchi_hanson_annulus_points(np.random.default_rng(seed), count, lam)
    r_low = pts[:, 0].min() - 0.1
    eguchi_hanson = mt.eguchi_hanson
    monkeypatch.setattr(mt, "eguchi_hanson",
                        lambda r_max: eguchi_hanson(r_max=r_max, margin=r_low - 1.0))
    with pytest.raises(RuntimeError, match="shot leaves the chart domain"):
        gh.eguchi_hanson_gh_comparison(lam=lam, count=count, seed=seed)


def test_eh_comparison_raises_when_a_pair_fails(monkeypatch):
    original = gh.geodesic_between

    def one_fails(*args, **kwargs):
        V, lengths, reasons = original(*args, **kwargs)
        reasons[2] = "shooting Jacobian singular"
        return V, lengths, reasons

    monkeypatch.setattr(gh, "geodesic_between", one_fails)
    with pytest.raises(RuntimeError, match="shooting Jacobian singular"):
        gh.eguchi_hanson_gh_comparison(lam=8.0, count=3, seed=0)


def test_errors_in_the_flatness_probe_propagate(monkeypatch):
    cone = mt.exact_cone(0.7)
    # a point off the chart reads as "not flat"
    assert not gh._is_flat_on(cone, np.array([[0.0, 1.0]]), np.random.default_rng(0))

    def broken(*args, **kwargs):
        raise TypeError("broken christoffel")

    monkeypatch.setattr(cv, "christoffel", broken)
    with pytest.raises(TypeError, match="broken christoffel"):
        gh._is_flat_on(cone, np.array([[0.5, 1.0]]), np.random.default_rng(0))


def test_gh_upper_identity():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = gh.FiniteMetricSpace(["a", "b"], d)
    assert gh.gh_upper(A, A, gh.natural_correspondence(2)) == 0.0


def test_gh_upper_rescaled_bound():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(12, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    A = gh.FiniteMetricSpace([str(i) for i in range(12)], d)
    delta = 0.05
    B = gh.FiniteMetricSpace(A.labels, d * (1 + delta))
    val = gh.gh_upper(A, B, gh.natural_correspondence(12))
    assert val <= delta * A.diam() / 2 + 1e-12


@pytest.mark.parametrize("d", [
    [[0.0, math.nan], [math.nan, 0.0]],
    [[0.0, 1.0, 2.0], [1.0, 0.0, math.nan], [2.0, math.nan, 0.0]],
])
def test_validate_rejects_nan(d):
    with pytest.raises(ValueError, match="NaN distance"):
        gh.FiniteMetricSpace([str(i) for i in range(len(d))], d).validate()


def test_validate_keeps_infinite_distances_between_components():
    d = np.array([[0.0, 1.0, math.inf], [1.0, 0.0, math.inf], [math.inf, math.inf, 0.0]])
    A = gh.FiniteMetricSpace(["a", "b", "c"], d).validate()
    assert A.diam() == 1.0
    # beside an infinite pair, a finite defect is still found
    four = np.full((4, 4), math.inf)
    four[:3, :3] = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    four[3, 3] = 0.0
    with pytest.raises(ValueError, match="triangle inequality"):
        gh.FiniteMetricSpace(list("abcd"), four).validate()
    d[0, 1] = 1.5
    with pytest.raises(ValueError, match="asymmetric"):
        gh.FiniteMetricSpace(["a", "b", "c"], d).validate()


def _loop_gh_upper(A, B, corr):
    """gh_upper as a double loop over the correspondence, pair by pair."""
    worst = 0.0
    for i, j in corr:
        for k, l in corr:
            da, db = A.d[i, k], B.d[j, l]
            if math.isinf(da) and math.isinf(db):
                continue
            worst = max(worst, abs(da - db))
    return 0.5 * worst


def _two_components(rng, sizes):
    """Random distances within each component, +inf between them."""
    n = sum(sizes)
    d = np.full((n, n), math.inf)
    at = 0
    for k in sizes:
        block = rng.uniform(0.5, 2.0, size=(k, k))
        d[at:at + k, at:at + k] = block + block.T
        at += k
    np.fill_diagonal(d, 0.0)
    return gh.FiniteMetricSpace([str(i) for i in range(n)], d)


def test_gh_upper_is_the_loop_over_the_correspondence():
    """The array form is bitwise the pair-by-pair loop: pairs infinite on
    both sides are skipped, and a NaN is passed over."""
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(4):
        A, B = (gh.FiniteMetricSpace([str(i) for i in range(9)],
                                     rng.uniform(0, 3, size=(9, 9))) for _ in range(2))
        corr = gh.natural_correspondence(9) + [tuple(p) for p in rng.integers(0, 9, (6, 2))]
        cases.append((A, B, corr))
    # the same two components on both sides, then components that differ
    cases.append((_two_components(rng, (3, 4)), _two_components(rng, (3, 4)),
                  gh.natural_correspondence(7)))
    cases.append((_two_components(rng, (3, 4)), _two_components(rng, (4, 3)),
                  gh.natural_correspondence(7)))
    cases[0][0].d[2, 5] = math.nan
    for A, B, corr in cases:
        assert gh.gh_upper(A, B, corr) == _loop_gh_upper(A, B, corr)
    assert math.isfinite(gh.gh_upper(*cases[-2])) and gh.gh_upper(*cases[-1]) == math.inf


def test_gh_upper_requires_cover():
    d = np.zeros((2, 2))
    A = gh.FiniteMetricSpace(["a", "b"], d)
    with pytest.raises(gh.CorrespondenceError):
        gh.gh_upper(A, A, [(0, 0)])


def test_gh_lower_examples():
    point = gh.FiniteMetricSpace(["p"], np.zeros((1, 1)))
    ts = np.linspace(0, 1, 40)
    interval = gh.FiniteMetricSpace([str(i) for i in range(40)],
                                    np.abs(ts[:, None] - ts[None, :]))
    assert gh.gh_lower(point, interval) >= 0.25
    L = 2.0
    two = gh.FiniteMetricSpace(["a", "b"], np.array([[0.0, L], [L, 0.0]]))
    one = gh.FiniteMetricSpace(["a"], np.zeros((1, 1)))
    assert gh.gh_lower(two, one) >= L / 4
    assert gh.gh_lower(interval, interval) == 0.0


def test_gh_lower_below_upper(rng):
    pts_a = rng.uniform(0, 1, size=(15, 2))
    pts_b = rng.uniform(0, 1.3, size=(15, 2))
    da = np.sqrt(((pts_a[:, None] - pts_a[None]) ** 2).sum(-1))
    db = np.sqrt(((pts_b[:, None] - pts_b[None]) ** 2).sum(-1))
    A = gh.FiniteMetricSpace([str(i) for i in range(15)], da)
    B = gh.FiniteMetricSpace([str(i) for i in range(15)], db)
    assert gh.gh_lower(A, B) <= gh.gh_upper(A, B, gh.natural_correspondence(15)) + 1e-12


def test_smoothed_vs_exact_cone_matched_layout(rng):
    a = 0.7
    cone_s = mt.smoothed_cone(a, 0.1)
    cone_e = mt.exact_cone(a)
    res1 = gh.sample_space(cone_s, [(0.25, 2.0), (0.3, 5.9)], 30, rng=rng)
    res2 = gh.sample_space(cone_e, [(0.25, 2.0), (0.3, 5.9)], 30, layout=res1.layout)
    val = gh.gh_upper(res1.space, res2.space, gh.natural_correspondence(30))
    assert val <= 1e-9


def test_cone_rp3_distance_consistency():
    # coincident angles: pure radial gap
    p1 = (1.0, 1.2, 0.7, 0.9)
    p2 = (1.5, 1.2, 0.7, 0.9)
    assert gh.cone_rp3_distance(p1, p2) == pytest.approx(0.5, abs=1e-12)
    # RP3 arc never exceeds pi/2
    rng = np.random.default_rng(0)
    for _ in range(50):
        a1 = rng.uniform(0.2, 2.9, size=3)
        a2 = rng.uniform(0.2, 2.9, size=3)
        arc = gh.rp3_distance((a1[1], a1[0], a1[2]), (a2[1], a2[0], a2[2]))
        assert 0.0 <= arc <= math.pi / 2 + 1e-12


def test_rp3_distance_matches_s3_metric(s3_quarter, rng):
    """The quaternion formula agrees with short geodesic lengths of the
    (1/4)(sigma^2) metric, confirming the Euler-angle conventions."""
    from framelab.curvature import geodesic_between
    for _ in range(5):
        p = np.array([rng.uniform(0.8, 2.2), rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)])
        q = p + rng.uniform(-0.25, 0.25, size=3)
        _, L = geodesic_between(s3_quarter, p, q)
        want = gh.rp3_distance((p[1], p[0], p[2]), (q[1], q[0], q[2]))
        assert L == pytest.approx(want, abs=2e-6)


def test_sample_frame_bundle_flat_product(rng):
    torus = mt.flat_torus(2)
    base = np.array([[1.0, 1.0], [2.0, 1.5], [3.0, 2.5]])
    fb = gh.sample_frame_bundle(torus, torus, base, fiber_count=4)
    fb.space.validate(tol=1e-6)
    # same fiber coordinate: distance equals the base distance
    K = len(fb.fiber_angles)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            assert fb.space.d[i * K, j * K] == pytest.approx(fb.base_distance[i, j],
                                                             abs=1e-6)
    # trivial holonomy: fiber block is the b-distance on SO(2)
    from framelab import ortho as ot
    want = ot.group_distance(ot.rotation2(fb.fiber_angles[0]),
                             ot.rotation2(fb.fiber_angles[1]))
    assert fb.space.d[0, 1] == pytest.approx(want, rel=1e-9)


def _circle_loop_turns(p, turns):
    """`coordinate_circle_loop(p, 1, 2 pi, orientation=-1)` swept `turns` times."""
    p = np.asarray(p, dtype=float)
    end = p.copy()
    end[1] = p[1] - turns * 2 * math.pi
    return hl.LoopSpec([p, end], end - p, f"circle(axis=1, turns={-turns})")


def test_sample_frame_bundle_cone_fiber_diameter_monotone():
    """Holonomy shortcuts shrink fibers near the cone vertex."""
    a = math.sqrt(2) - 1
    cone = mt.smoothed_cone(a, 0.05)
    base = np.array([[0.15, 0.0], [1.6, 0.0]])

    def loops_at(p):
        if p[0] > 0.5:
            return []
        return [_circle_loop_turns(p, k) for k in (1, 2, 3, 4, 5)]

    fb = gh.sample_frame_bundle(cone, cone, base, fiber_count=6, loops_at=loops_at)
    K = 6
    blocks = []
    for b in range(2):
        sub = fb.space.d[b * K:(b + 1) * K, b * K:(b + 1) * K]
        blocks.append(sub.max())
    assert blocks[0] < blocks[1]
    # submetry shadow: bundle distances dominate base distances
    for I in range(2 * K):
        for J in range(2 * K):
            i, j = I // K, J // K
            assert fb.space.d[I, J] >= fb.base_distance[i, j] - 1e-9


def test_collapse_experiment_irrational():
    rep = gh.fiber_collapse_experiment(math.sqrt(2) - 1, [0.1, 0.05, 0.02, 0.01],
                                       max_power=60)
    Ds = [row["D"] for row in rep.ladder]
    assert all(b < a for a, b in zip(Ds[:-1], Ds[1:]))
    assert Ds[-1] <= 0.5 * Ds[0]
    assert rep.reflection_disconnected
    assert rep.monotone


def test_collapse_experiment_rational_stabilizes():
    rep = gh.fiber_collapse_experiment(1.0 / 3.0, [0.1, 0.05, 0.02, 0.01],
                                       max_power=60)
    target = math.sqrt(2) * math.pi / 3
    assert rep.ladder[-1]["D"] == pytest.approx(target, abs=1e-2)


def test_collapse_experiment_flat_control():
    rep = gh.fiber_collapse_experiment(1.0, [0.1, 0.05], max_power=10)
    Ds = [row["D"] for row in rep.ladder]
    assert Ds[0] == pytest.approx(math.sqrt(2) * math.pi, abs=1e-9)
    assert Ds[1] == pytest.approx(Ds[0], abs=1e-9)


def test_eguchi_hanson_gh_small():
    val, A, B = gh.eguchi_hanson_gh_comparison(lam=8.0, count=8, seed=0)
    assert val <= 0.05
    A.validate(tol=1e-6)
    B.validate(tol=1e-9)


def _chord_reference(m, a, b, panels):
    """Length of the straight chord a -> b: `panels` equal Gauss-Legendre
    panels of 8 nodes on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    vel = b - a
    total = 0.0
    for p0 in range(panels):
        lo = p0 / panels
        hi = (p0 + 1) / panels
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            t = mid + half * x
            c = a + t * vel
            total += w * half * math.sqrt(max(float(vel @ m.evaluate(c) @ vel), 0.0))
    return total


CHORD_CONE = mt.smoothed_cone(0.7, 0.1)
CHORD_END = st.tuples(st.floats(0.01, 3.9), st.floats(-7.0, 14.0))


@settings(max_examples=100, deadline=None)
@given(a=CHORD_END, b=CHORD_END)
def test_chord_lengths_equal_panel_quadrature(a, b):
    a, b = np.array(a), np.array(b)
    # graph edges: 2 panels
    w = gh._edge_weights(CHORD_CONE, np.array([a, b]), np.array([[0, 1]]), None)
    assert w[0] == _chord_reference(CHORD_CONE, a, b, 2)
    # pair refinement: 4 panels
    got = cv.curve_length(CHORD_CONE, a, b, samples=32)
    assert got == _chord_reference(CHORD_CONE, a, b, 4)


def test_haar_quotient_samples_reach_past_pi():
    """Haar-random SO(4) reaches O(4)/{±I} distances above pi, whose
    diameter is sqrt(2) pi; no sampled maximum exceeds its exact value."""
    from framelab import ortho as ot
    rng = np.random.default_rng(0)
    ideal = ot.su2_bases()[0]
    su2 = ot.classify_subgroup(
        [ot.group_exp(sum(c * b for c, b in zip(rng.normal(size=3) * 0.4, ideal)))
         for _ in range(20)])
    assert su2.label == "SU(2)-in-SO(4)"
    U = gh.haar_so(rng, 50, 4)
    assert np.abs(U @ U.transpose(0, 2, 1) - np.eye(4)).max() <= 1e-12
    assert (np.linalg.det(U) > 0).all()
    diams = gh.quotient_diameters(su2, 40, rng)
    assert diams["diam_O4_mod_pmI"] > math.pi
    assert all(diams[k] <= exact + 1e-12 for k, exact in diams["exact"].items() if k != "gap")
    assert diams["gap"] == diams["diam_O4_mod_pmI"] - diams["diam_O4_mod_SU2"] > 0
    empty = gh.quotient_diameters(su2, 0, rng)
    assert [empty[k] for k in ("diam_O4_mod_SU2", "diam_O4_mod_pmI", "gap")] == [None] * 3
