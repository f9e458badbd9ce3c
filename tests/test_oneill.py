import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import bundle as bd
from framelab import curvature as cv
from framelab import metric as mt
from framelab import oneill as on
from framelab import ortho as ot
from framelab.curvature import fd_gradient

from conftest import (GMET_N3, connection_form, fd_christoffel, reference_a_tensor_vertical,
                      reference_gradient, ricci_biinvariant, stacked)


def ctx_at(g, gp, p):
    return on.ONeillContext(g, gp, bd.FramePoint.anchor(p, g.dim))


def random_direction(ctx, rng):
    v = rng.normal(size=ctx.n)
    xi = ot.unvec_skew(rng.normal(size=ctx.m), ctx.n)
    return v, xi


# ---------------------------------------------------------------------------
# A-tensor

def test_a_tensor_flat_vanishes(flat2):
    ctx = ctx_at(flat2, flat2, [0.1, 0.2])
    W = reference_a_tensor_vertical(ctx, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.abs(W).max() == 0.0


def test_a_tensor_sphere_magnitude(sphere):
    ctx = ctx_at(sphere, sphere, [1.0, 0.5])
    W = reference_a_tensor_vertical(ctx, ctx.f[:, 0], ctx.f[:, 1])
    assert abs(W[0, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_a_tensor_antisymmetry(sphere, rng):
    ctx = ctx_at(sphere, sphere, [1.2, 0.3])
    for _ in range(5):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        W1 = reference_a_tensor_vertical(ctx, x, y)
        W2 = reference_a_tensor_vertical(ctx, y, x)
        assert np.abs(W1 + W2).max() <= 1e-12


def test_a_tensor_matches_fd_oracle(sphere):
    """Direct (nabla~_X Y)^V from finite-difference Christoffels of the
    lifted metric agrees with the curvature formula, sign included."""
    ctx = ctx_at(sphere, sphere, [1.0, 0.5])
    ch = ctx.chart
    y0 = ch.chart_point()
    f1, f2 = ctx.f[:, 0], ctx.f[:, 1]
    W = reference_a_tensor_vertical(ctx, f1, f2)
    num = ch.numeric()
    gam = fd_christoffel(num, y0)
    X0 = ch.lift(y0, f1)
    Y0 = ch.lift(y0, f2)
    dY = fd_gradient(stacked(lambda y: ch.lift(y, f2)), y0)
    nab = np.einsum("a,ac->c", X0, dY) + np.einsum("cab,a,b->c", gam, X0, Y0)
    W_fd = math.sqrt(2.0) * connection_form(ch, y0, nab)
    assert np.abs(W - W_fd).max() <= 1e-8


def test_covariant_a_zero_on_symmetric_space(sphere, rng):
    ctx = ctx_at(sphere, sphere, [0.9, 1.1])
    for _ in range(4):
        z, x, y = (rng.normal(size=2) for _ in range(3))
        V = on.covariant_a_horizontal(ctx, z, x, y)
        assert np.abs(V).max() <= 1e-10


def test_a_tensors_on_stacks_match_single_triples(cone_pair, rng):
    """A stack of triples gives each triple's own value."""
    ctx = ctx_at(*cone_pair, [0.35, 1.2])
    Z, X, Y = (rng.normal(size=(5, 2)) for _ in range(3))
    V = on.covariant_a_horizontal(ctx, Z, X, Y)
    assert V.shape == (5, 2, 2)
    for k in range(5):
        one = on.covariant_a_horizontal(ctx, Z[k], X[k], Y[k])
        assert np.abs(V[k] - one).max() <= 1e-14 * np.abs(one).max()
    with pytest.raises(ValueError):
        on.covariant_a_horizontal(ctx, Z[None], X[None], Y[None])


def test_covariant_a_flat_zero(flat2):
    ctx = ctx_at(flat2, flat2, [0.0, 0.0])
    V = on.covariant_a_horizontal(ctx, np.array([1.0, 0]), np.array([1.0, 0]),
                                  np.array([0, 1.0]))
    assert np.abs(V).max() == 0.0


def test_covariant_a_cone_pair_matches_fd(cone_pair):
    """Nonzero covariant A on the cone pair, checked against the full
    finite-difference transport oracle to 1e-6."""
    g, gp = cone_pair
    ctx = ctx_at(g, gp, [0.35, 1.2])
    ch = ctx.chart
    y0 = ch.chart_point()
    f1, f2 = ctx.f[:, 0], ctx.f[:, 1]
    V = on.covariant_a_horizontal(ctx, f1, f1, f2)
    assert np.abs(V).max() > 1.0   # genuinely nonzero (cap-scale curvature)

    num = ch.numeric()
    gam = fd_christoffel(num, y0)
    Z0 = ch.lift(y0, f1)

    def nab_xy_vertical(y):
        gam_y = fd_christoffel(num, y)
        X = ch.lift(y, f1)
        Y = ch.lift(y, f2)
        dY = fd_gradient(stacked(lambda yy: ch.lift(yy, f2)), y)
        nabv = np.einsum("a,ac->c", X, dY) + np.einsum("cab,a,b->c", gam_y, X, Y)
        return nabv - ch.lift(y, nabv[:2])

    A0v = nab_xy_vertical(y0)
    dA = reference_gradient(nab_xy_vertical, y0, 3e-4, 3e-5)
    nabZ_A = np.einsum("a,ac->c", Z0, dA) + np.einsum("cab,a,b->c", gam, Z0, A0v)

    def lift_field(vb):
        return stacked(lambda y: ch.lift(y, vb))

    X0 = ch.lift(y0, f1)
    Y0 = ch.lift(y0, f2)
    nabZX = np.einsum("a,ac->c", Z0, fd_gradient(lift_field(f1), y0)) + \
        np.einsum("cab,a,b->c", gam, Z0, X0)
    nabZY = np.einsum("a,ac->c", Z0, fd_gradient(lift_field(f2), y0)) + \
        np.einsum("cab,a,b->c", gam, Z0, Y0)
    W_corr = (reference_a_tensor_vertical(ctx, nabZX[:2], f2)
              + reference_a_tensor_vertical(ctx, f1, nabZY[:2]))
    V_fd = math.sqrt(2.0) * connection_form(ch, y0, nabZ_A) - W_corr
    assert np.abs(V - V_fd).max() <= 1e-6 * max(1.0, np.abs(V).max())


def test_covariant_a_vertical_identity(sphere, cone_pair):
    # gt((nabla~_T A)_X X, T) = 0, evaluated through the HVHV identity
    cases = [(sphere, sphere, [1.0, 0.5]), cone_pair + ([0.35, 1.2],)]
    e12 = ot.skew_basis_element(2, 0, 1)
    for g, gp, p in cases:
        ctx = ctx_at(g, gp, p)
        res, _, _ = on.covariant_a_vertical_residual(ctx, e12 / math.sqrt(2),
                                                     ctx.f[:, 0])
        assert res <= 1e-6


# ---------------------------------------------------------------------------
# Ricci formula vs direct

@pytest.mark.parametrize("case", ["flat", "torus", "sphere"])
def test_ricci_formula_vs_direct(case, flat2, torus2, sphere, rng):
    g = {"flat": flat2, "torus": torus2, "sphere": sphere}[case]
    pts = {"flat": [[0.1, 0.2]], "torus": [[1.0, 2.0]],
           "sphere": [[0.8, 0.3], [1.7, 2.0]]}[case]
    for p in pts:
        ctx = ctx_at(g, g, p)
        for _ in range(4):
            v, xi = random_direction(ctx, rng)
            dirs = ((v, xi), (v, None), (None, xi))
            for (vv, xx), d in zip(dirs, on.ricci_direct(ctx, *zip(*dirs))):
                f = on.ricci_oneill(ctx, vv, xx).ricci_formula
                assert abs(f - d) <= 1e-5 * (1 + abs(d))


def test_ricci_cone_pair_formula_vs_direct(cone_pair, rng):
    g, gp = cone_pair
    ctx = ctx_at(g, gp, [0.35, 1.2])
    for _ in range(4):
        v, xi = random_direction(ctx, rng)
        f = on.ricci_oneill(ctx, v, xi).ricci_formula
        d, = on.ricci_direct(ctx, [v], [xi])
        assert abs(f - d) <= 1e-5 * (1 + abs(d))


def test_sphere_frame_bundle_ricci_values(sphere):
    """Known closed values on F(S^2): horizontal Ricci 0, vertical 1."""
    ctx = ctx_at(sphere, sphere, [1.1, 0.4])
    horiz = on.ricci_oneill(ctx, np.array([1.0, 0.0]), None)
    assert horiz.ricci_formula == pytest.approx(0.0, abs=1e-10)
    assert horiz.terms["HH"] == pytest.approx(-0.5, abs=1e-10)
    assert horiz.terms["HV_mixed"] == pytest.approx(0.5, abs=1e-10)
    vert = on.ricci_oneill(ctx, None, ot.skew_basis_element(2, 0, 1))
    assert vert.ricci_formula == pytest.approx(1.0, abs=1e-10)
    assert vert.terms["VV"] == 0.0   # one-dimensional fiber


def test_vvvh_block_vanishes_s3(s3_quarter, rng):
    """<R~(U, V) W, X> = 0 for vertical U, V, W on a 3-dimensional base
    (total dimension 6), evaluated by direct finite differences."""
    ctx = ctx_at(s3_quarter, s3_quarter, [1.4, 1.0, 0.8])
    scale = None
    for _ in range(3):
        xis = [ot.unvec_skew(rng.normal(size=3), 3) for _ in range(3)]
        xh = rng.normal(size=3)
        val = on.riemann_direct_4(ctx, [(None, xis[0]), (None, xis[1]),
                                        (None, xis[2]), (xh, None)])
        if scale is None:
            ref = abs(on.riemann_direct_4(ctx, [(xh, None), (None, xis[0]),
                                                (xh, None), (None, xis[0])]))
            scale = max(1.0, ref)
        assert abs(val) <= 1e-6 * scale


def test_s3_sectional_curvature_is_one(s3_quarter, rng):
    from framelab.curvature import sectional
    for _ in range(5):
        p = [rng.uniform(0.5, math.pi - 0.5), rng.uniform(0, 6.0), rng.uniform(0, 6.0)]
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        assert sectional(s3_quarter, p, u, v) == pytest.approx(1.0, abs=1e-9)


def test_oneill_hhhh_sectional_consistency(sphere, s3_quarter, rng):
    """Horizontal sectional numerator from the formula equals the direct
    computation (Eq. HHHH with Z = Y, H = X)."""
    for g, p in ((sphere, [1.0, 0.5]), (s3_quarter, [1.3, 0.8, 1.1])):
        ctx = ctx_at(g, g, p)
        for _ in range(3):
            x = rng.normal(size=g.dim)
            y = rng.normal(size=g.dim)
            # base curvature minus 3 |A_X Y|^2, summed over lam < mu
            W = reference_a_tensor_vertical(ctx, x, y)
            formula = (cv.pairing(cv.riemann(g, p).rlow, x, y, y, x)
                       - 1.5 * float(np.sum(W * W)))
            direct = on.riemann_direct_4(ctx, [(x, None), (y, None),
                                               (y, None), (x, None)])
            assert abs(formula - direct) <= 1e-5 * (1 + abs(direct))


def test_frame_permutation_invariance(cone_pair, rng):
    """Reported scalars do not depend on the coordinate order used to build
    the orthonormal frames."""
    g, gp = cone_pair
    p = [0.4, 0.9]
    ctx = ctx_at(g, gp, p)
    v, xi = random_direction(ctx, rng)
    base = on.ricci_oneill(ctx, v, xi).ricci_formula

    # permute the chart coordinates of both metrics
    def permuted(m):
        comps = [[m.components[1][1], m.components[1][0]],
                 [m.components[0][1], m.components[0][0]]]
        return mt.MetricSpec(2, (m.coords[1], m.coords[0]), comps,
                             (m.domain[1], m.domain[0]), dict(m.params),
                             dict(m.periods), m.name + "-swapped")

    ctx2 = ctx_at(permuted(g), permuted(gp), [p[1], p[0]])
    v2 = v[::-1].copy()
    rep2 = on.ricci_oneill(ctx2, v2, -xi.T[::-1, ::-1].copy())
    # the skew matrix transforms with the permutation; for n = 2 this is a sign
    assert rep2.ricci_formula == pytest.approx(base, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# the Ricci matrix

def berger_s3(tau2):
    """(1/4)(sigma1^2 + sigma2^2 + tau2 sigma3^2) in Euler angles; tau2 = 1
    is the round S^3 of curvature 1."""
    return mt.parse_metric(f"""dim 3; coords th ph ps;
params tau2={tau2};
domain th in [0.25, {math.pi - 0.25}];
g = [[1/4, 0, 0], [0, (sin(th)^2 + tau2*cos(th)^2)/4, tau2*cos(th)/4],
     [0, tau2*cos(th)/4, tau2/4]];
""")


def fd_ricci_matrix(ctx):
    """P^T Ric_FD P: one finite-difference Ricci of the lifted chart metric,
    with P the chart components of the gt-orthonormal frame."""
    cols = [on.chart_direction(ctx, ctx.f[:, i], None) for i in range(ctx.n)]
    cols += [on.chart_direction(ctx, None, ot.unvec_skew(e, ctx.n)) for e in np.eye(ctx.m)]
    P = np.stack(cols, axis=1)
    return P.T @ ctx.chart.numeric().ricci(ctx.chart.chart_point()) @ P


@pytest.mark.parametrize("pair", ["round-vs-berger-S3", "generic-gmet", "eguchi-hanson"])
def test_ricci_matrix_matches_fd_oracle(pair):
    """n = 3 and n = 4 (non-abelian fibers) with g != g': the whole Ricci
    matrix, HHHV cross term included, agrees with the finite-difference
    oracle."""
    if pair == "generic-gmet":
        g, gp = (mt.parse_metric(text) for text in GMET_N3)
        pts = [[0.4, 0.7, 1.1], [1.0, 0.3, 0.6]]
    elif pair == "eguchi-hanson":
        g, gp = mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2)
        pts = [[1.8, 1.2, 0.7, 1.0], [2.5, 2.0, 3.0, 0.4]]
    else:
        g, gp = berger_s3(1.0), berger_s3(0.6)
        pts = [[1.0, 0.5, 0.3], [1.9, 2.0, 4.0]]
    n = g.dim
    worst, cross = 0.0, 0.0
    for p in pts:
        ctx = ctx_at(g, gp, p)
        Q = on.ricci_matrix(ctx)
        F = fd_ricci_matrix(ctx)
        worst = max(worst, float(np.abs(Q - F).max() / (1 + np.abs(F).max())))
        cross = max(cross, float(np.abs(Q[:n, n:]).max()))
    assert worst <= 1e-6
    assert cross >= 0.02   # the HV block is the cross term, so its sign is pinned


@functools.lru_cache(maxsize=None)
def _ricci_matrix_case(n, k):
    g, gp, pts = {
        2: (mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.30),
            [[0.35, 1.2], [0.2, 4.0]]),
        3: (berger_s3(1.0), berger_s3(0.6), [[1.0, 0.5, 0.3], [2.2, 1.0, 5.0]]),
        4: (mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2),
            [[1.8, 1.2, 0.7, 1.0], [2.5, 2.0, 3.0, 0.4]]),
    }[n]
    ctx = ctx_at(g, gp, pts[k])
    return ctx, on.ricci_matrix(ctx)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), k=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_ricci_matrix_is_the_quadratic_form(n, k, seed):
    """c^T Q c / |c|^2 is the formula Ricci in the direction with frame
    components c, and Q is symmetric (g != g' in every dimension)."""
    ctx, Q = _ricci_matrix_case(n, k)
    assert np.array_equal(Q, Q.T)
    c = np.random.default_rng(seed).normal(size=ctx.n + ctx.m)
    rep = on.ricci_oneill(ctx, ctx.f @ c[:n], ot.unvec_skew(c[n:], n))
    assert c @ Q @ c / (c @ c) == pytest.approx(rep.ricci_formula, rel=1e-12,
                                                abs=1e-12 * np.abs(Q).max())


def reference_ricci_terms(ctx, v_base, xi):
    """The four submersion terms in one direction, assembled term by term
    from the direction itself (the per-direction reference of the blocks)."""
    x, xi, _ = on.normalize_direction(ctx, v_base, xi)
    Mx = np.einsum("abkl,a,bj,ku,lv->jvu", ctx.rlow_eps, x, ctx.f, ctx.e, ctx.e)
    hh = float(x @ ctx.ric_g @ x) - 0.75 * float(np.sum(Mx * Mx))
    hv_h = 0.25 * float(np.sum(Mx * Mx))
    inner = np.einsum("ijvu,vu->ij", ctx.r4_frame, xi)
    hv_v = 0.25 * float(np.sum(inner * inner))
    vv = ricci_biinvariant(xi) if np.abs(xi).max() > 0 else 0.0
    cross = 0.0
    if np.abs(xi).max() > 0 and np.abs(x).max() > 0:
        acc = 0.0
        for i in range(ctx.n):
            V = on.covariant_a_horizontal(ctx, ctx.f[:, i], x, ctx.f[:, i])
            acc += float(np.sum(V * xi))
        cross = on.CROSS_TERM_SIGN * math.sqrt(2.0) * acc
    return {"HH": hh, "HV_mixed": hv_h + hv_v, "VV": vv, "HHHV_cross": cross}


@functools.lru_cache(maxsize=None)
def _polarized_ricci_matrix(n, k):
    """The Ricci matrix of `_ricci_matrix_case(n, k)` by polarizing the
    reference, Q_aa = r(e_a) and Q_ab = (r(e_a + e_b) - r(e_a - e_b)) / 2."""
    ctx, _ = _ricci_matrix_case(n, k)
    N = ctx.n + ctx.m

    def r(c):
        return sum(reference_ricci_terms(ctx, ctx.f @ c[:n], ot.unvec_skew(c[n:], n)).values())

    basis = np.eye(N)
    Q = np.empty((N, N))
    for a in range(N):
        Q[a, a] = r(basis[a])
        for b in range(a):
            Q[a, b] = Q[b, a] = 0.5 * (r(basis[a] + basis[b]) - r(basis[a] - basis[b]))
    return Q


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), k=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_ricci_blocks_match_the_references(n, k, seed):
    """The block-assembled matrix equals the polarized reference, and every
    `terms` entry equals the per-direction reference (g != g')."""
    ctx, Q = _ricci_matrix_case(n, k)
    ref = _polarized_ricci_matrix(n, k)
    assert np.abs(Q - ref).max() <= 1e-13 * np.abs(ref).max()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    xi = ot.unvec_skew(rng.normal(size=ctx.m), n)
    for vv, xx in ((v, xi), (v, None), (None, xi)):
        terms = on.ricci_oneill(ctx, vv, xx).terms
        want = reference_ricci_terms(ctx, vv, xx)
        assert terms.keys() == want.keys()
        for name, value in want.items():
            assert abs(terms[name] - value) <= 1e-12 * (1 + abs(value)), name


# ---------------------------------------------------------------------------
# bound reports

def test_bound_report_is_the_spectral_radius(cone_pair, rng):
    """Each point's sup_ricci is max |eig| of the Ricci matrix, and no
    sampled unit direction exceeds it."""
    g, gp = cone_pair
    pts = [np.array([0.35, 1.0]), np.array([0.5, 2.0])]
    rep = on.ricci_bound_report(g, gp, pts)
    assert "directions" not in rep.to_json_obj()
    for p, row in zip(pts, rep.per_sample):
        ctx = ctx_at(g, gp, p)
        assert row["sup_ricci"] == np.abs(np.linalg.eigvalsh(on.ricci_matrix(ctx))).max()
        for _ in range(20):
            v, xi = random_direction(ctx, rng)
            f = on.ricci_oneill(ctx, v, xi).ricci_formula
            assert abs(f) <= row["sup_ricci"] * (1 + 1e-12)
    assert rep.sup_ricci == max(row["sup_ricci"] for row in rep.per_sample)


def _count_jet_evaluations(monkeypatch):
    """Per metric, the evaluations of G alone (`evaluate`) and of its jets
    to order 1, 2 and 3 (`derivative_fn(order)`) from here on."""
    counts = collections.defaultdict(lambda: [0, 0, 0, 0])
    evaluate = mt.MetricSpec.evaluate
    derivative_fn = mt.MetricSpec.derivative_fn

    def counted_evaluate(self, point):
        counts[self][0] += 1
        return evaluate(self, point)

    def counted_derivative_fn(self, order):
        fn = derivative_fn(self, order)

        def counted(point):
            counts[self][order] += 1
            return fn(point)
        return counted

    monkeypatch.setattr(mt.MetricSpec, "evaluate", counted_evaluate)
    monkeypatch.setattr(mt.MetricSpec, "derivative_fn", counted_derivative_fn)
    return counts


def _count_calls(monkeypatch, names):
    """Calls of the named curvature functions, on every binding of them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cv, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (cv, on):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_context_evaluates_each_jet_once(monkeypatch):
    """One context at an n = 3 pair with g != g', at a point and at a stack
    of three: one evaluation of the jet of g to order 2 and one of g' to
    order 3 (G, dG and d2G of g and G through d3G of g' once each, from
    separate programs, before one program per metric and order; 4, 3 and
    1 times, and 5, 3, 2 and 1 times, when the context took its jets
    separately)."""
    g, gp = (mt.parse_metric(src) for src in GMET_N3)
    counts = _count_jet_evaluations(monkeypatch)
    on.ONeillContext(g, gp, bd.FramePoint.anchor([0.6, 0.7, 0.8], 3))
    assert counts == {g: [0, 0, 1, 0], gp: [0, 0, 0, 1]}
    counts.clear()
    on.ONeillContext(g, gp, bd.FramePoint.anchor([[0.6, 0.7, 0.8], [0.4, 0.7, 1.1],
                                                  [1.0, 0.3, 0.6]], 3))
    assert counts == {g: [0, 0, 1, 0], gp: [0, 0, 0, 1]}


def test_hypothesis_measurements_one_riemann_per_point(eh, monkeypatch):
    """The hypothesis numbers read the context's jets: with them in hand,
    neither `hypothesis_measurements` nor a per-direction report evaluates
    a metric or builds a jet."""
    ctx = ctx_at(eh, mt.eguchi_hanson(1.2), [1.8, 1.2, 0.7, 1.0])
    counts = _count_jet_evaluations(monkeypatch)
    calls = _count_calls(monkeypatch, ["riemann", "christoffel", "curvature_gradient"])
    on.hypothesis_measurements(ctx.jet_g, ctx.grad_gp)
    on.ricci_oneill(ctx, np.ones(4), None)
    assert counts == {}
    assert calls == {"riemann": 0, "christoffel": 0, "curvature_gradient": 0}


def test_bound_report_shares_the_context_jets(eh, monkeypatch):
    """A bound-report evaluates each jet once, as one context does, for
    one point and for a stack of them, and makes no Christoffel call (G,
    dG and d2G of g were evaluated 7, 3 and 1 times and G through d3G of
    g' 9, 4, 3 and 2 times per point, through 2 riemann and 3 christoffel
    calls, when the context and the hypothesis numbers took their jets
    separately; one riemann and one curvature_gradient call per point
    before the stacked context)."""
    gp = mt.eguchi_hanson(1.2)
    counts = _count_jet_evaluations(monkeypatch)
    calls = _count_calls(monkeypatch, ["riemann", "christoffel", "curvature_gradient"])
    for pts in ([[1.8, 1.2, 0.7, 1.0]], [[1.8, 1.2, 0.7, 1.0], [2.4, 1.5, 2.0, 0.3]]):
        counts.clear()
        calls.update(dict.fromkeys(calls, 0))
        on.ricci_bound_report(eh, gp, pts)
        assert counts == {eh: [0, 0, 1, 0], gp: [0, 0, 0, 1]}
        assert calls == {"riemann": 1, "christoffel": 0, "curvature_gradient": 1}


def test_curvature_command_evaluates_each_jet_once(eh, monkeypatch, tmp_path):
    """`curvature --metric2` builds one Riemann jet of g and one gradient
    jet of g', each from one jet evaluation (6, 2 and 1, and 6, 3, 2 and 1
    evaluations of G and its partials before; 1, 1 and 1, and 1, 1, 1 and
    1 before one program per metric and order)."""
    from framelab import cli

    loaded = {}
    original = mt.metric_from_uri

    def load(uri):
        return loaded.setdefault(uri, original(uri))

    monkeypatch.setattr(mt, "metric_from_uri", load)
    counts = _count_jet_evaluations(monkeypatch)
    code = cli.main(["curvature", "--metric", "builtin:eguchi-hanson:a=1",
                     "--metric2", "builtin:eguchi-hanson:a=1.2",
                     "--at", "1.8,1.2,0.7,1.0", "--out", str(tmp_path)])
    assert code == 0
    g, gp = loaded["builtin:eguchi-hanson:a=1"], loaded["builtin:eguchi-hanson:a=1.2"]
    assert counts == {g: [0, 0, 1, 0], gp: [0, 0, 0, 1]}


def test_bound_report_assembles_the_blocks_once(eh, monkeypatch):
    """One EH point: no per-direction Ricci and one covariant A evaluation,
    on the stack of all n^2 triples (the polarized matrix took 100 and 192,
    the per-triple blocks 16)."""
    calls = {"ricci_oneill": 0, "covariant_a_horizontal": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(on, name, counting(name, getattr(on, name)))
    on.ricci_bound_report(eh, mt.eguchi_hanson(1.2), [[1.8, 1.2, 0.7, 1.0]])
    assert calls["ricci_oneill"] == 0
    assert calls["covariant_a_horizontal"] == 1


def test_bound_report_flat_pair(flat2, rng):
    pts = [np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(4)]
    rep = on.ricci_bound_report(flat2, flat2, pts)
    assert rep.hypothesis_sup["eps_hat"] == 0.0
    assert rep.hypothesis_sup["delta_hat"] == 0.0
    assert rep.hypothesis_sup["k_hat"] == 0.0
    assert rep.sup_ricci <= 1e-7
    assert not rep.flags


def test_bound_report_one_dimensional_base():
    # n = 1: a zero-dimensional fiber, so the blocks are 1 x 1
    flat1 = mt.flat_euclidean(1)
    assert on.ricci_bound_report(flat1, flat1, [np.array([0.3])]).sup_ricci == 0.0


def test_bound_report_cone_stable_under_refinement():
    g = mt.smoothed_cone(0.7, 0.1)
    gp = mt.smoothed_cone(0.7, 0.2)
    r_grid = np.geomspace(0.05, 3.0, 32)
    pts1 = [np.array([r, 1.0]) for r in r_grid[::2]]
    pts2 = [np.array([r, 1.0]) for r in r_grid]
    rep1 = on.ricci_bound_report(g, gp, pts1)
    rep2 = on.ricci_bound_report(g, gp, pts2)
    assert math.isfinite(rep2.sup_ricci)
    assert rep2.sup_ricci >= rep1.sup_ricci - 1e-9
    assert (rep2.sup_ricci - rep1.sup_ricci) <= 0.05 * rep1.sup_ricci


def test_hypothesis_blowup_flag():
    g = mt.smoothed_cone(0.7, 0.0004)
    pts = [np.array([0.0005, 1.0])]
    rep = on.ricci_bound_report(g, g, pts)
    assert rep.flags   # k_hat ~ eps^-2 > 1e6


def test_eguchi_hanson_hh_block(eh, rng):
    """Ric_g = 0 makes the HH block purely the negative A-tensor square."""
    ctx = ctx_at(eh, eh, [1.8, 1.2, 0.7, 1.0])
    v = rng.normal(size=4)
    rep = on.ricci_oneill(ctx, v, None)
    assert rep.terms["HH"] <= 1e-10
    assert rep.terms["HV_mixed"] == pytest.approx(-rep.terms["HH"] / 3.0, rel=1e-9)


def test_ricci_eguchi_hanson_formula_vs_direct(eh, rng):
    """n = 4, the SO(4) fiber, with g != g' (a = 1 against 1.2): formula and
    finite-difference Ricci agree in mixed, horizontal and vertical
    directions."""
    ctx = ctx_at(eh, mt.eguchi_hanson(1.2), [1.8, 1.2, 0.7, 1.0])
    v, xi = random_direction(ctx, rng)
    dirs = ((v, xi), (v, None), (None, xi))
    for (vv, xx), d in zip(dirs, on.ricci_direct(ctx, *zip(*dirs))):
        f = on.ricci_oneill(ctx, vv, xx).ricci_formula
        assert abs(f - d) <= 1e-6 * (1 + abs(d))


def test_ricci_direct_is_three_stacked_metric_calls(cone_pair, monkeypatch):
    """The values, the gradient stencils and the Hessian stencils of the
    finite-difference Ricci of B contexts are one `metric_matrix` call
    each."""
    rows = []
    original = bd.LiftedMetricChart.metric_matrix

    def counted(self, y):
        rows.append(len(np.atleast_2d(y)))
        return original(self, y)

    monkeypatch.setattr(bd.LiftedMetricChart, "metric_matrix", counted)
    ctx = ctx_at(*cone_pair, [[0.35, 1.2], [0.6, 2.0], [1.1, 0.4]])
    B = 3
    on.ricci_direct(ctx, [np.array([1.0, 0.5])] * B, [None] * B)
    N = ctx.n + ctx.m
    assert rows == [B, 4 * N * B, B * (1 + 4 * N * N)]


@pytest.mark.parametrize("pair", ["cone", "gmet-n3", "eguchi-hanson"])
def test_ricci_direct_stack_is_bitwise_single_calls(pair, cone_pair, rng):
    """ricci_direct at a stacked context of B points gives each point's
    single-point value bit for bit: n = 2, n = 3 with g != g', and n = 4."""
    if pair == "cone":
        (g, gp), pts = cone_pair, [[0.35, 1.2], [0.9, 2.5], [1.3, 4.0]]
    elif pair == "gmet-n3":
        g, gp = (mt.parse_metric(text) for text in GMET_N3)
        pts = [[0.4, 0.7, 1.1], [1.0, 0.3, 0.6], [0.6, 0.7, 0.8]]
    else:
        g, gp = mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2)
        pts = [[1.8, 1.2, 0.7, 1.0], [2.4, 1.5, 2.0, 0.3]]
    ctx = ctx_at(g, gp, pts)
    dirs = [random_direction(ctx, rng) for _ in pts]
    dirs[0] = (dirs[0][0], None)
    dirs[-1] = (None, dirs[-1][1])
    V, XI = zip(*dirs)
    got = on.ricci_direct(ctx, V, XI)
    assert got.dtype == float and got.shape == (len(pts),)
    want = [on.ricci_direct(ctx_at(g, gp, p), [v], [xi])[0] for p, v, xi in zip(pts, V, XI)]
    assert got.tolist() == want


def test_ricci_direct_groups_fit_the_row_budget(rng, monkeypatch):
    """With DIRECT_ROWS small the rows go in several groups: the values
    are bitwise the one-group values, and no `metric_matrix` call gets more
    rows than the budget."""
    g, gp = (mt.parse_metric(text) for text in GMET_N3)
    pts = [[0.4, 0.7, 1.1], [1.0, 0.3, 0.6], [0.6, 0.7, 0.8], [0.9, 1.1, 0.5], [0.3, 0.4, 1.3]]
    ctx = ctx_at(g, gp, pts)
    V, XI = zip(*[random_direction(ctx, rng) for _ in pts])
    whole = on.ricci_direct(ctx, V, XI)
    N = ctx.n + ctx.m
    budget = 2 * (1 + 4 * N * N) + 10
    assert budget < len(pts) * (1 + 4 * N * N) <= on.DIRECT_ROWS
    rows = []
    original = bd.LiftedMetricChart.metric_matrix

    def counted(self, y):
        rows.append(len(np.atleast_2d(y)))
        return original(self, y)

    monkeypatch.setattr(bd.LiftedMetricChart, "metric_matrix", counted)
    monkeypatch.setattr(on, "DIRECT_ROWS", budget)
    assert on.ricci_direct(ctx, V, XI).tolist() == whole.tolist()
    # groups of 2, 2 and 1 contexts: values, gradient and Hessian stencils
    assert rows == [k * r for k in (2, 2, 1) for r in (1, 4 * N, 1 + 4 * N * N)]
    assert max(rows) <= budget



# ---------------------------------------------------------------------------
# stacked contexts

#: a pair of charts whose components take exp, log and tan
GMET_EXP_LOG_TAN = tuple(
    "dim 2; coords x y; domain x in [0.1, 1.5]; domain y in [0.1, 1.5]; " + g for g in (
        "g = [[1 + exp(-x*y)/2, tan(x/3)/10], [tan(x/3)/10, 2 + log(1 + y^2)]];",
        "g = [[2 + tan(y/4), exp(-x)/5], [exp(-x)/5, 1 + log(2 + x*y)]];"))

STACKED_CASES = {
    "n2-cone": (lambda: (mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.3)),
                [[0.35, 1.2], [0.9, 2.5], [1.3, 4.0], [0.2, 0.1]]),
    "n3-gmet": (lambda: tuple(mt.parse_metric(text) for text in GMET_N3),
                [[0.4, 0.7, 1.1], [1.0, 0.3, 0.6], [0.6, 0.7, 0.8]]),
    "n4-eguchi-hanson": (lambda: (mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2)),
                         [[1.8, 1.2, 0.7, 1.0], [2.4, 1.5, 2.0, 0.3], [1.3, 0.9, 4.0, 5.0]]),
    "n2-exp-log-tan": (lambda: tuple(mt.parse_metric(text) for text in GMET_EXP_LOG_TAN),
                       [[0.4, 0.7], [1.0, 0.3], [0.6, 1.2], [1.4, 1.45]]),
}


def _ulp_gap(a, b):
    """The largest |a - b| in ulps of the largest |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / np.spacing(max(np.abs(b).max(), 1e-300)))


@pytest.mark.parametrize("case", list(STACKED_CASES))
def test_stacked_context_rows_are_the_point_contexts(case, rng):
    """n = 2, 3 and 4 with g != g': each row of a stacked context (G, Gamma,
    rlow, nabla R' under Gamma, r4_frame, the frames) and of its formula
    and terms is the one-point context's, within 4 ulps of the array's
    largest entry, also on charts with exp, log and tan; a failure names
    every array's largest gap (0, bitwise, with numpy 2.4 on x86-64)."""
    factory, pts = STACKED_CASES[case]
    g, gp = factory()
    ctx = ctx_at(g, gp, pts)
    V, XI = (np.array(a) for a in zip(*[random_direction(ctx, rng) for _ in pts]))
    rep = on.ricci_oneill(ctx, V, XI)
    blocks = on._ricci_blocks(ctx)
    gaps = collections.defaultdict(float)
    for k, p in enumerate(pts):
        one = ctx_at(g, gp, p)
        rep1 = on.ricci_oneill(one, V[k], XI[k])
        rows = {"G": (ctx.G, one.G), "gamma": (ctx.jet_g.gamma, one.jet_g.gamma),
                "gamma_eps": (ctx.grad_gp.gamma, one.grad_gp.gamma),
                "rlow": (ctx.jet_g.rlow, one.jet_g.rlow), "ric_g": (ctx.ric_g, one.ric_g),
                "rlow_eps": (ctx.rlow_eps, one.rlow_eps),
                "nabla_r_eps": (ctx.nabla_r_eps, one.nabla_r_eps),
                "f": (ctx.f, one.f), "e": (ctx.e, one.e),
                "r4_frame": (ctx.r4_frame, one.r4_frame),
                "formula": (rep.ricci_formula, rep1.ricci_formula)}
        rows.update({f"term {name}": (rep.terms[name], rep1.terms[name]) for name in rep1.terms})
        rows.update({f"block {name}": (Q, Q1) for (name, Q), Q1
                     in zip(blocks.items(), on._ricci_blocks(one).values())})
        for name, (stacked, single) in rows.items():
            gaps[name] = max(gaps[name], _ulp_gap(np.asarray(stacked)[k], single))
    assert max(gaps.values()) <= 4, dict(gaps)


@pytest.mark.parametrize("case", list(STACKED_CASES))
def test_r4_frame_is_the_five_operand_einsum(case):
    """The frame table from four pairwise contractions equals the one
    5-operand einsum it replaced, to rounding of its largest entry, on a
    stacked context of n = 2, 3 and 4."""
    factory, pts = STACKED_CASES[case]
    ctx = ctx_at(*factory(), pts)
    want = np.einsum("...abkl,...ai,...bj,...ku,...lv->...ijvu",
                     ctx.rlow_eps, ctx.f, ctx.f, ctx.e, ctx.e)
    assert ctx.r4_frame.shape == want.shape
    assert np.abs(ctx.r4_frame - want).max() <= 4e-15 * np.abs(want).max()


#: a chart whose metric is not positive definite where x <= 0
NOT_SPD_CHART = "dim 2; coords x y; domain x in [-1, 1]; domain y in [-1, 1]; g = [[1, 0], [0, x]];"
#: a flat chart that ends at x = 0.8
SHORT_FLAT_CHART = ("dim 2; coords x y; domain x in [-1, 0.8]; domain y in [-1, 1];"
                    " g = [[1, 0], [0, 1]];")


def test_a_stacked_context_names_the_first_bad_point():
    """A stack with points outside the chart, or where a metric is not
    positive definite, raises the exception of the first bad point in
    draw order, with g checked before g' at each point, as one context per
    point did; so does a bound report over the stack."""
    eh, eh2 = mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2)
    bad, short = mt.parse_metric(NOT_SPD_CHART), mt.parse_metric(SHORT_FLAT_CHART)
    cases = [
        (eh, eh2, [[1.8, 1.2, 0.7, 1.0], [0.5, 1.2, 0.7, 1.0], [9.0, 1.2, 0.7, 1.0]],
         cv.DomainExitError, "point [0.5, 1.2, 0.7, 1.0] is outside the chart domain"),
        (bad, bad, [[0.5, 0.1], [-0.5, 0.2], [-0.3, 0.0]],
         mt.NotSPDError, "metric not positive definite at [-0.5, 0.2]: eigenvalues"),
        # g' fails at the second point before g leaves its chart at the third
        (short, bad, [[0.5, 0.1], [-0.5, 0.2], [0.9, 0.0]],
         mt.NotSPDError, "metric not positive definite at [-0.5, 0.2]: eigenvalues"),
    ]
    for g, gp, pts, error, message in cases:
        first = next(p for p in pts if not g.in_domain(p) or not gp.in_domain(p)
                     or np.linalg.eigvalsh(gp.evaluate(p))[0] <= 0
                     or np.linalg.eigvalsh(g.evaluate(p))[0] <= 0)
        with pytest.raises(error) as one:
            ctx_at(g, gp, first)
        assert str(one.value).startswith(message)
        for run in (lambda: ctx_at(g, gp, pts), lambda: on.ricci_bound_report(g, gp, pts)):
            with pytest.raises(error) as stacked:
                run()
            assert str(stacked.value) == str(one.value)
