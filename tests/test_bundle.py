import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import bundle as bd
from framelab import curvature as cv
from framelab import expr as ex
from framelab import holonomy as hl
from framelab import metric as mt
from framelab import ortho as ot

from conftest import (GMET_N3, connection_form, fd_christoffel, reference_metric_matrix,
                      with_components)


def sphere_canonical(th):
    """Hand-derived canonical lifting metric of the unit sphere in the
    chart (th, ph, t): dth^2 + sin^2 th dph^2 + 2 (dt - cos th dph)^2."""
    c = math.cos(th)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.sin(th) ** 2 + 2 * c * c, -2.0 * c],
        [0.0, -2.0 * c, 2.0],
    ])


def frame_at(chart, y):
    """The frame at the chart point y, S(x) exp(T(t)) A0, S the reference
    section of g': its columns are the frame vectors in coordinates."""
    x, t = chart.split(y)
    return hl.section_frame(chart.gp, x) @ ot.group_exp(chart.skew_from_t(t)) @ chart.anchor.frame


def test_frame_point_validates_orthogonality():
    with pytest.raises(ot.NotOrthogonalError):
        bd.FramePoint([0.0, 0.0], np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_frame_columns_orthonormal(sphere, rng):
    for _ in range(5):
        p = [rng.uniform(0.3, 2.8), rng.uniform(0, 6.0)]
        A0 = ot.rotation2(rng.uniform(0, 2 * math.pi))
        chart = bd.LiftedMetricChart(sphere, sphere, bd.FramePoint(p, A0))
        E = frame_at(chart, chart.chart_point(t=[rng.uniform(-0.5, 0.5)]))
        G = sphere.evaluate(p)
        assert np.abs(E.T @ G @ E - np.eye(2)).max() <= 1e-10


def test_connection_form_fundamental_and_horizontal(sphere, rng):
    p = [1.1, 0.4]
    fp = bd.FramePoint.anchor(p, 2)
    chart = bd.LiftedMetricChart(sphere, sphere, fp)
    y = chart.chart_point()
    e12 = ot.skew_basis_element(2, 0, 1)
    fund = chart.lift(y, a=e12)
    assert np.abs(connection_form(chart, y, fund) - e12).max() <= 1e-12
    v = rng.normal(size=2)
    lift = chart.lift(y, v)
    assert np.abs(connection_form(chart, y, lift)).max() <= 1e-9
    assert np.abs(lift[:2] - v).max() <= 1e-12
    # a mixed tangent is the sum of its parts, up to rounding
    assert np.abs(chart.lift(y, v, e12) - (lift + fund)).max() <= 1e-12


def test_connection_form_flat_fiber_coordinate(flat2):
    # flat connection: the fiber coordinate direction is the fundamental field
    chart = bd.LiftedMetricChart(flat2, flat2, bd.FramePoint.anchor([0.2, 0.4], 2))
    om = connection_form(chart, chart.chart_point(), [0.0, 0.0, 1.0])
    assert np.abs(om - ot.skew_basis_element(2, 0, 1)).max() <= 1e-12


def test_horizontal_lift_flat_has_no_fiber_motion(flat2):
    chart = bd.LiftedMetricChart(flat2, flat2, bd.FramePoint.anchor([0.0, 0.0], 2))
    lift = chart.lift(chart.chart_point(), np.array([1.0, 0.0]))
    assert np.abs(lift[2:]).max() <= 1e-14


def test_lift_transport_consistency_on_latitude(sphere):
    """Integrating the horizontal-lift field along a latitude reproduces the
    parallel-transport ODE (cross-oracle between bundle and holonomy)."""
    th0 = 1.0
    fp = bd.FramePoint.anchor([th0, 0.0], 2)
    chart = bd.LiftedMetricChart(sphere, sphere, fp)
    seg = hl.angular_segment([th0, 0.0], 1, 0.0, 2 * math.pi)

    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return chart.lift(y, seg.velocity(t))

    y0 = chart.chart_point()
    sol = solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-10, atol=1e-12)
    y1 = sol.y[:, -1]
    E_end = frame_at(chart, np.concatenate([fp.base, y1[2:]]))
    S = hl.section_frame(sphere, np.array([th0, 0.0]))
    P = hl.transport_matrix(sphere, [seg], S)
    assert np.abs(E_end - P).max() <= 1e-7


def test_lifted_metric_flat_product(flat2):
    chart = bd.LiftedMetricChart(flat2, flat2, bd.FramePoint.anchor([0.1, 0.2], 2))
    got = chart.metric_matrix(chart.chart_point(t=[0.3]))
    assert np.allclose(got, np.diag([1.0, 1.0, 2.0]), atol=1e-14)
    # all Christoffels vanish
    num = chart.numeric()
    gam = fd_christoffel(num, chart.chart_point())
    assert np.abs(gam).max() <= 1e-9


def test_lifted_metric_recovers_canonical_sphere(sphere, rng):
    for _ in range(10):
        th = rng.uniform(0.4, math.pi - 0.4)
        ph = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(-0.6, 0.6)
        A0 = ot.rotation2(rng.uniform(0, 2 * math.pi))
        chart = bd.LiftedMetricChart(sphere, sphere, bd.FramePoint([th, ph], A0))
        got = chart.metric_matrix(chart.chart_point(t=[t]))
        assert np.abs(got - sphere_canonical(th)).max() <= 1e-9


def test_vertical_block_is_twice_identity(sphere, cone_pair, rng):
    g, gp = cone_pair
    cases = [(sphere, sphere, [1.0, 0.5]), (g, gp, [0.5, 1.0])]
    for gg, gpp, p in cases:
        chart = bd.LiftedMetricChart(gg, gpp, bd.FramePoint.anchor(p, 2))
        for _ in range(3):
            y = chart.chart_point(t=rng.uniform(-0.5, 0.5, size=1))
            blk = chart.vertical_block_fundamental(y)
            assert np.abs(blk - 2.0 * np.eye(1)).max() <= 1e-9


def test_submersion_and_adapted_frame(sphere, rng):
    chart = bd.LiftedMetricChart(sphere, sphere, bd.FramePoint.anchor([0.9, 0.2], 2))
    y = chart.chart_point(t=[0.2])
    Gt = chart.metric_matrix(y)
    G = sphere.evaluate([0.9, 0.2])
    for _ in range(5):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        lu = chart.lift(y, u)
        lv = chart.lift(y, v)
        assert lu @ Gt @ lv == pytest.approx(u @ G @ v, rel=1e-9, abs=1e-12)
    # adapted frame: identity blocks, vanishing mixed block
    P = chart.metric_in_adapted_frame(y)
    assert np.abs(P - np.eye(3)).max() <= 1e-9


def test_lift_columns_are_single_lifts(eh, monkeypatch):
    """Stacked v/a columns lift like one column at a time, and the adapted
    frame takes one omega_basis call for all of its columns."""
    chart = bd.LiftedMetricChart(eh, eh, bd.FramePoint.anchor([2.2, 1.3, 0.8, 1.1], 4))
    y = chart.chart_point(t=np.linspace(-0.2, 0.3, 6))
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 3))
    a = np.array([ot.unvec_skew(w, 4) for w in rng.normal(size=(3, 6))])
    cols = chart.lift(y, v, a)
    assert cols.shape == (10, 3)
    for k in range(3):
        assert np.abs(cols[:, k] - chart.lift(y, v[:, k], a[k])).max() <= 1e-12
    calls = []
    original = chart.omega_basis
    monkeypatch.setattr(chart, "omega_basis", lambda y: calls.append(1) or original(y))
    chart.adapted_frame(y)
    chart.vertical_block_fundamental(y)
    assert len(calls) == 2


@pytest.mark.parametrize("pair", ["cone", "gmet-n3", "eguchi-hanson"])
def test_lift_over_a_stack_is_bitwise_point_lifts(pair, cone_pair, monkeypatch):
    """Chart points (B, N) with one (v, a) per row lift in one omega_basis
    call, each row bitwise its point lift, with v or a left out too."""
    if pair == "cone":
        (g, gp), p = cone_pair, [0.5, 1.0]
    elif pair == "gmet-n3":
        (g, gp), p = (mt.parse_metric(text) for text in GMET_N3), [0.4, 0.7, 1.1]
    else:
        g, gp, p = mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2), [1.8, 1.2, 0.7, 1.0]
    chart = bd.LiftedMetricChart(g, gp, bd.FramePoint.anchor(p, len(p)))
    n, m, B = chart.n, chart.m, 4
    rng = np.random.default_rng(n)
    Y = np.tile(chart.chart_point(), (B, 1))
    Y[:, :n] += rng.uniform(-0.05, 0.05, size=(B, n))
    Y[:, n:] += rng.uniform(-0.2, 0.2, size=(B, m))
    V = rng.normal(size=(B, n))
    A = np.array([ot.unvec_skew(w, n) for w in rng.normal(size=(B, m))])
    for v, a in ((V, A), (V, None), (None, A)):
        want = np.stack([chart.lift(y, None if v is None else v[k], None if a is None else a[k])
                         for k, y in enumerate(Y)])
        calls = []
        original = chart.omega_basis
        monkeypatch.setattr(chart, "omega_basis", lambda y: calls.append(1) or original(y))
        got = chart.lift(Y, v, a)
        monkeypatch.undo()
        assert len(calls) == 1
        assert got.shape == (B, n + m)
        assert np.array_equal(got, want)


def test_dimension_budget_rejected():
    m5 = mt.flat_euclidean(5)
    with pytest.raises(bd.ChartBudgetError):
        bd.LiftedMetricChart(m5, m5, bd.FramePoint.anchor(np.zeros(5), 5))


def test_on_invariance_of_scalars(sphere, rng):
    """Right-translating the anchor changes the chart but not geometric
    scalars: gt-inner products of matched lifts and fundamental fields."""
    p = [1.2, 0.7]
    v = rng.normal(size=2)
    a = 0.37 * ot.skew_basis_element(2, 0, 1)
    vals = []
    for _ in range(3):
        A0 = ot.rotation2(rng.uniform(0, 2 * math.pi))
        chart = bd.LiftedMetricChart(sphere, sphere, bd.FramePoint(p, A0))
        y = chart.chart_point()
        Gt = chart.metric_matrix(y)
        lift = chart.lift(y, v)
        fund = chart.lift(y, a=a)
        vals.append((lift @ Gt @ lift, fund @ Gt @ fund, lift @ Gt @ fund))
    for row in vals[1:]:
        assert np.abs(np.array(row) - np.array(vals[0])).max() <= 1e-9


def test_c0_continuity_in_the_connection_metric(sphere):
    """Perturbing g' by delta h moves evaluated components by O(delta)."""
    th = ex.Sym("th")
    h = [[ex.Num(0), ex.Num(0)], [ex.Num(0), ex.cos(th)]]
    base_chart = bd.LiftedMetricChart(sphere, sphere, bd.FramePoint.anchor([1.0, 0.4], 2))
    y = base_chart.chart_point(t=[0.2])
    base_val = base_chart.metric_matrix(y)
    gaps = []
    deltas = (1e-2, 1e-3, 1e-4)
    for d in deltas:
        comps = [[ex.Add(sphere.components[i][j], ex.Mul(ex.Num(d), h[i][j]))
                  for j in range(2)] for i in range(2)]
        gp = with_components(sphere, comps, name=f"perturbed-{d}")
        chart = bd.LiftedMetricChart(sphere, gp, bd.FramePoint.anchor([1.0, 0.4], 2))
        gaps.append(np.abs(chart.metric_matrix(y) - base_val).max())
    slopes = np.diff(np.log(gaps)) / np.diff(np.log(deltas))
    assert np.all(np.abs(slopes - 1.0) < 0.2)


def test_fibers_totally_geodesic(sphere, cone_pair):
    g, gp = cone_pair
    for gg, gpp, p in ((sphere, sphere, [1.0, 0.5]), (g, gp, [0.5, 1.0])):
        chart = bd.LiftedMetricChart(gg, gpp, bd.FramePoint.anchor(p, 2))
        y0 = chart.chart_point()
        v0 = chart.lift(y0, a=0.8 * ot.skew_basis_element(2, 0, 1))
        sol = cv.geodesic_ivp(chart.numeric(), y0, v0, 1.0, rtol=1e-9, atol=1e-9)
        assert np.abs(sol.y[:2] - y0[:2, None]).max() <= 1e-7


def _section_reference(G, dG):
    """S = chol(G)^-T and its partials, as computed from one Cholesky factor."""
    L = np.linalg.cholesky(G)
    Linv = np.linalg.inv(L)
    S = Linv.T
    n = G.shape[0]
    dS = np.empty((n, n, n))
    for i in range(n):
        M = Linv @ dG[i] @ Linv.T
        Phi = np.tril(M, -1) + 0.5 * np.diag(np.diag(M))
        dS[i] = -S @ Phi.T
    return S, dS


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_section_equals_cholesky_reference(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    G = B @ B.T + n * np.eye(n)
    dG = rng.normal(size=(n, n, n))
    dG = dG + dG.transpose(0, 2, 1)
    S_ref, dS_ref = _section_reference(G, dG)
    S, dS, Sinv = hl.section_with_derivative(G, dG)
    assert np.array_equal(S, S_ref) and np.array_equal(dS, dS_ref)
    assert np.array_equal(Sinv, np.linalg.cholesky(G).T)
    assert np.abs(Sinv @ S - np.eye(n)).max() <= 1e-12
    assert np.array_equal(hl.cholesky_section(G), S_ref)



@functools.lru_cache(maxsize=None)
def _lifted_case(n):
    """(g, g', base point) with g != g' for n = 2, 3, 4."""
    if n == 2:
        return mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.30), (0.35, 1.2)
    if n == 3:
        g, gp = (mt.parse_metric(text) for text in GMET_N3)
        return g, gp, (0.4, 0.7, 1.1)
    return mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2), (1.8, 1.2, 0.7, 1.0)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_stacked_metric_matches_the_pointwise_reference(n, seed):
    """A stack whose rows share base and fiber rows, as a difference
    stencil's do, under a random anchor and with |t|_b <= pi/4: each row is
    within 1e-14 max|gt| of the per-point expm_frechet reference and
    bitwise the chart's value at that row alone."""
    g, gp, p = _lifted_case(n)
    rng = np.random.default_rng(seed)
    anchor = bd.FramePoint(p, np.linalg.qr(rng.normal(size=(n, n)))[0])
    chart = bd.LiftedMetricChart(g, gp, anchor)
    bases = np.array(p) + 0.05 * rng.uniform(-1, 1, size=(3, n))
    fibers = rng.normal(size=(3, chart.m))
    # |t|_b = sqrt(2) |t|
    radii = rng.uniform(0, math.pi / 4, size=(3, 1)) / math.sqrt(2)
    fibers = np.vstack([radii * fibers / np.linalg.norm(fibers, axis=1, keepdims=True),
                        np.zeros(chart.m)])
    Y = np.hstack([bases[rng.integers(3, size=10)], fibers[rng.integers(4, size=10)]])
    got = chart.metric_matrix(Y)
    assert got.shape == (10, chart.dim, chart.dim)
    for k, y in enumerate(Y):
        ref = reference_metric_matrix(chart, y)
        assert np.abs(got[k] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(got[k], chart.metric_matrix(y))


def test_stacked_metric_reports_the_non_spd_row():
    """One non-SPD row in a stack raises the error the pointwise check
    raises at that row."""
    gp = mt.parse_metric("dim 2; coords x y; g = [[1, 0], [0, x]];")
    chart = bd.LiftedMetricChart(gp, gp, bd.FramePoint.anchor([0.5, 0.0], 2))
    Y = np.array([[0.5, 0.0, 0.1], [-0.2, 0.3, 0.0], [0.6, 0.0, 0.0]])
    with pytest.raises(mt.NotSPDError) as stacked_err:
        chart.metric_matrix(Y)
    with pytest.raises(mt.NotSPDError) as pointwise_err:
        gp.check_spd([-0.2, 0.3])
    assert str(stacked_err.value) == str(pointwise_err.value)


def test_one_dimensional_base_has_an_empty_fiber():
    flat1 = mt.flat_euclidean(1)
    chart = bd.LiftedMetricChart(flat1, flat1, bd.FramePoint.anchor([0.3], 1))
    Y = np.array([[0.3], [0.4]])
    om_x, om_t = chart.omega_basis(Y)
    assert om_x.shape == (2, 1, 1, 1) and om_t.shape == (2, 0, 1, 1)
    assert np.array_equal(chart.metric_matrix(Y), np.ones((2, 1, 1)))
