import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import bundle as bd
from framelab import curvature as cv
from framelab import expr as ex
from framelab import metric as mt

from conftest import counting_rhs, dipping_cone_pair, reference_gradient, stacked


def metric_compat_residual(m, p):
    G, dG = m.derivative_fn(1)(p)
    gamma = cv.christoffel(m, p).gamma
    # d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
    res = (dG - np.einsum("lki,lj->kij", gamma, G)
           - np.einsum("lkj,il->kij", gamma, G))
    return np.abs(res).max()


def test_flat_christoffels_vanish(flat2):
    cc = cv.christoffel(flat2, [0.4, -0.2])
    assert np.abs(cc.gamma).max() == 0.0


def test_sphere_christoffel_closed_form(sphere):
    th = 0.8
    cc = cv.christoffel(sphere, [th, 1.2])
    assert cc.gamma[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-14)
    assert cc.gamma[1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th), abs=1e-13)
    assert np.abs(cc.gamma - np.einsum("kij->kji", cc.gamma)).max() == 0.0


def test_cone_christoffel_outside_cap(cone_smooth):
    # Gamma^r_phiphi = -a^2 r on the exact-cone flank
    r = 1.3
    cc = cv.christoffel(cone_smooth, [r, 0.7])
    assert cc.gamma[0, 1, 1] == pytest.approx(-0.49 * r, rel=1e-12)


@pytest.mark.parametrize("factory", [
    lambda: mt.flat_torus(2),
    lambda: mt.round_sphere(),
    lambda: mt.smoothed_cone(0.7, 0.1),
    lambda: mt.exact_cone(0.55),
    lambda: mt.eguchi_hanson(1.0),
])
def test_metric_compatibility(factory, rng):
    m = factory()
    for p in m.sample_interior(rng, 20, margin=0.1):
        assert metric_compat_residual(m, p) <= 1e-9


def test_flat_torus_riemann_zero(torus2):
    R = cv.riemann(torus2, [1.0, 2.0])
    assert np.abs(R.rlow).max() == 0.0


def test_sphere_sectional_curvature_one(sphere, rng):
    for _ in range(5):
        p = [rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 2 * math.pi)]
        K = cv.sectional(sphere, p, [1.0, 0.0], [0.0, 1.0])
        assert K == pytest.approx(1.0, abs=1e-9)
        # the spec's coordinate-plane oracle K = R_1212 / det g
        R = cv.riemann(sphere, p)
        det = np.linalg.det(sphere.evaluate(p))
        assert R.rlow[0, 1, 0, 1] / det == pytest.approx(1.0, abs=1e-9)


def curvature_symmetry_residuals(rlow):
    scale = max(np.abs(rlow).max(), 1e-30)
    anti_ij = np.abs(rlow + np.einsum("ijkl->jikl", rlow)).max()
    anti_kl = np.abs(rlow + np.einsum("ijkl->ijlk", rlow)).max()
    pair = np.abs(rlow - np.einsum("ijkl->klij", rlow)).max()
    bianchi = np.abs(rlow + np.einsum("ijkl->jkil", rlow)
                     + np.einsum("ijkl->kijl", rlow)).max()
    return max(anti_ij, anti_kl, pair, bianchi) / scale


@pytest.mark.parametrize("factory,npts", [
    (lambda: mt.round_sphere(), 20),
    (lambda: mt.smoothed_cone(0.7, 0.1), 20),
    (lambda: mt.flat_torus(2), 5),
    (lambda: mt.eguchi_hanson(1.0), 20),
    (lambda: mt.rescaled(mt.eguchi_hanson(1.0), 0.5), 5),
])
def test_riemann_symmetries(factory, npts, rng):
    m = factory()
    for p in m.sample_interior(rng, npts, margin=0.1):
        R = cv.riemann(m, p)
        if np.abs(R.rlow).max() <= 1e-12:   # numerically flat point
            continue
        assert curvature_symmetry_residuals(R.rlow) <= 1e-9


def test_sphere_ricci_equals_metric(sphere, rng):
    for p in sphere.sample_interior(rng, 10, margin=0.1):
        ric = cv.ricci(sphere, p)
        assert np.abs(ric - sphere.evaluate(p)).max() <= 1e-10


def test_eguchi_hanson_ricci_flat(eh, rng):
    for p in eh.sample_interior(rng, 10, margin=0.1):
        assert np.abs(cv.ricci(eh, p)).max() <= 1e-8
    # the radii called out for the Einstein check, with nonflat curvature
    for r in (1.5, 2.0, 5.0):
        assert np.abs(cv.ricci(eh, [r, 1.1, 0.6, 0.8])).max() <= 1e-8
    p = [1.5, 1.2, 0.7, 0.9]
    R = cv.riemann(eh, p)
    assert cv.tensor_norm(R.rlow, R.G, "llll") > 0.1


def test_ricci_symmetric(eh, rng):
    for p in eh.sample_interior(rng, 5, margin=0.1):
        ric = cv.ricci(eh, p)
        assert np.abs(ric - ric.T).max() <= 1e-10


def test_flat_curvature_gradient_zero(flat2):
    ng = cv.curvature_gradient(flat2, [0.1, 0.2])
    assert np.abs(ng.nabla_r).max() == 0.0


def test_sphere_curvature_gradient_zero(sphere, rng):
    # symmetric space: nabla R = 0
    for p in sphere.sample_interior(rng, 5, margin=0.1):
        ng = cv.curvature_gradient(sphere, p)
        assert np.abs(ng.nabla_r).max() <= 1e-12


def test_cone_cap_gradient_nonzero_finite(cone_smooth):
    ng = cv.curvature_gradient(cone_smooth, [0.1, 0.4])
    assert np.isfinite(ng.nabla_r).all()
    assert np.abs(ng.nabla_r).max() > 1e-3


def test_second_bianchi(eh, sphere, rng):
    # nabla_m R_ijkl + nabla_i R_jmkl + nabla_j R_mikl = 0
    for m, pts in ((eh, 4), (sphere, 4)):
        for p in m.sample_interior(rng, pts, margin=0.15):
            nr = cv.curvature_gradient(m, p).nabla_r
            scale = max(np.abs(nr).max(), 1e-12)
            total = (nr + np.transpose(nr, (1, 2, 0, 3, 4))
                     + np.transpose(nr, (2, 0, 1, 3, 4)))
            assert np.abs(total).max() / scale <= 1e-8


def test_tensor_norm_identity(flat2):
    val = cv.tensor_norm(np.eye(2), flat2.evaluate([0.0, 0.0]), "ul")
    assert val == pytest.approx(math.sqrt(2), abs=1e-14)


def test_tensor_norm_riemann_sphere(sphere):
    # |R| = 2 for the unit 2-sphere
    p = [1.1, 0.3]
    R = cv.riemann(sphere, p)
    assert cv.tensor_norm(R.rlow, R.G, "llll") == pytest.approx(2.0, abs=1e-9)


def test_tensor_norm_valence_mismatch(flat2):
    with pytest.raises(cv.ValenceError):
        cv.tensor_norm(np.eye(2), flat2.evaluate([0, 0]), "ull")


def _reference_tensor_norm(T, G, signature):
    """The one-einsum norm that the slot-by-slot contraction replaced."""
    k = len(signature)
    a, b = "abcdefgh"[:k], "mnopqrst"[:k]
    mats = ",".join(f"...{a[i]}{b[i]}" for i in range(k))
    slots = [G if s == "u" else np.linalg.solve(G, np.eye(G.shape[-1])) for s in signature]
    return np.sqrt(np.maximum(np.einsum(f"...{a},...{b},{mats}->...", T, T, *slots), 0.0))


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_norm_matches_the_einsum_for_every_signature(n):
    """Every 'u'/'l' signature of rank 1-5 on a stack of random tensors:
    the norms agree with the one-einsum reference to rounding, and each row
    is bitwise the norm of that row alone."""
    rng = np.random.default_rng(11 + n)
    C = rng.normal(size=(6, n, n))
    G = C @ np.swapaxes(C, -1, -2) + n * np.eye(n)
    for k in range(1, 6):
        T = rng.normal(size=(6,) + (n,) * k)
        for signature in itertools.product("ul", repeat=k):
            signature = "".join(signature)
            got = cv.tensor_norm(T, G, signature)
            want = _reference_tensor_norm(T, G, signature)
            assert got.shape == (6,)
            assert np.abs(got - want).max() <= 1e-14 * want.max()
            for row in range(6):
                assert cv.tensor_norm(T[row], G[row], signature) == got[row]


def test_jets_carry_their_metric_and_connection(eh, rng):
    """Each jet holds the G and Gamma it was assembled from, bitwise the
    values of `evaluate` and `christoffel`, and the curvature-gradient jet
    holds bitwise the Riemann jet's rlow (leading outputs do not depend on
    the jet order)."""
    gp = mt.eguchi_hanson(1.2)
    for p in eh.sample_interior(rng, 2, margin=0.2):
        R = cv.riemann(eh, p)
        J = cv.curvature_gradient(gp, p)
        assert np.array_equal(R.G, eh.evaluate(p))
        assert np.array_equal(J.G, gp.evaluate(p))
        assert np.array_equal(R.gamma, cv.christoffel(eh, p).gamma)
        assert np.array_equal(J.gamma, cv.christoffel(gp, p).gamma)
        assert np.array_equal(J.rlow, cv.riemann(gp, p).rlow)
        assert np.array_equal(R.ricci(), cv.ricci(eh, p))
        assert np.array_equal(J.nabla(J.gamma), J.nabla_r)
        # under another connection the difference is the D-terms alone
        D = R.gamma - J.gamma
        want = (np.einsum("smi,sjkl->mijkl", D, J.rlow)
                + np.einsum("smj,iskl->mijkl", D, J.rlow)
                + np.einsum("smk,ijsl->mijkl", D, J.rlow)
                + np.einsum("sml,ijks->mijkl", D, J.rlow))
        got = J.nabla_r - J.nabla(R.gamma)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_curvature_gradient_checks_domain_and_spd():
    cone = mt.exact_cone(0.7, r_min=0.5, r_max=3.0)
    with pytest.raises(cv.DomainExitError):
        cv.curvature_gradient(cone, [0.2, 1.0])
    indefinite = mt.parse_metric("dim 2; coords x y; g = [[1, 0], [0, x]];")
    with pytest.raises(mt.NotSPDError):
        cv.curvature_gradient(indefinite, [-1.0, 0.0])


def test_exp_map_flat(flat2):
    out = cv.geodesic_ivp(flat2, [0.1, 0.2], [0.3, -0.4], 2.0).y[:2, -1]
    assert np.allclose(out, [0.7, -0.6], atol=1e-12)


def test_exp_map_great_circle(sphere):
    # from the equator heading north: reach the pole at t = pi/2
    out = cv.geodesic_ivp(sphere, [math.pi / 2, 1.0], [-1.0, 0.0], math.pi / 2).y[:2, -1]
    assert abs(out[0]) <= 1e-8


def test_exp_map_energy_conservation(sphere):
    sol = cv.geodesic_ivp(sphere, [1.2, 0.3], [0.4, 0.7], 1.5)
    assert cv.geodesic_energy_drift(sphere, sol) <= 1e-8


def test_geodesic_between_shooting(sphere):
    p = np.array([1.2, 0.4])
    q = np.array([1.0, 1.1])
    v, length = cv.geodesic_between(sphere, p, q)
    end = cv.geodesic_ivp(sphere, p, v, 1.0).y[:2, -1]
    assert np.abs(end - q).max() <= 1e-9
    # length equals |v|_g
    G = sphere.evaluate(p)
    assert length == pytest.approx(math.sqrt(v @ G @ v), rel=1e-12)


def _endpoint_jacobian_fd(m, p, v, h=1e-6):
    """Central differences of v -> exp_p(v), integrated tightly."""
    n = m.dim
    J = np.empty((n, n))
    for a in range(n):
        dv = np.zeros(n)
        dv[a] = h
        ends = [cv.geodesic_ivp(m, p, w, 1.0, rtol=1e-12, atol=1e-12).y[:n, -1]
                for w in (v + dv, v - dv)]
        J[:, a] = (ends[0] - ends[1]) / (2 * h)
    return J


@pytest.mark.parametrize("name, p, v", [
    ("sphere", [1.0, 0.5], [0.3, 0.4]),
    ("cone", [1.0, 0.2], [0.4, 1.1]),
    ("eh", [2.2, 1.3, 0.8, 1.1], [0.3, -0.1, 0.2, 0.15]),
])
def test_variational_jacobian_matches_finite_differences(name, p, v, sphere, eh):
    m = {"sphere": sphere, "cone": mt.exact_cone(0.7), "eh": eh}[name]
    p, v = np.array(p), np.array(v)
    n = m.dim
    sol = cv.geodesic_ivp(m, p, v, 1.0, rtol=1e-12, atol=1e-12,
                          variational=True)
    J = sol.y[2 * n:2 * n + n * n, -1].reshape(n, n)
    fd = _endpoint_jacobian_fd(m, p, v)
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(fd).max()
    # the geodesic part of the state is the plain geodesic
    plain = cv.geodesic_ivp(m, p, v, 1.0, rtol=1e-12, atol=1e-12)
    assert np.abs(sol.y[:2 * n, -1] - plain.y[:, -1]).max() <= 1e-9


def test_geodesic_between_one_integration_per_newton_step(eh, monkeypatch):
    calls = []
    original = cv.geodesic_ivp

    def counted(*args, **kwargs):
        calls.append(kwargs.get("variational", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(cv, "geodesic_ivp", counted)
    p = np.array([2.2, 1.3, 0.8, 1.1])
    q = np.array([2.5, 1.1, 1.0, 1.4])
    cv.geodesic_between(eh, p, q)
    k = len(calls)
    assert k >= 3 and all(calls)
    # one call per loop pass: k - 1 passes are too few, each with one call
    calls.clear()
    with pytest.raises(RuntimeError, match="failed to converge"):
        cv.geodesic_between(eh, p, q, max_iter=k - 1)
    assert len(calls) == k - 1


def test_stacked_shooting_makes_one_integration_per_newton_pass(eh, monkeypatch):
    rows = []
    original = cv.geodesic_ivp

    def counted(m, p, v, *args, **kwargs):
        rows.append(len(p))
        return original(m, p, v, *args, **kwargs)

    P = np.array([[2.2, 1.3, 0.8, 1.1], [2.4, 1.2, 0.9, 1.0], [2.0, 1.4, 1.0, 1.2]])
    Q = P + np.array([[0.3, -0.2, 0.2, 0.3], [0.02, 0.01, 0.0, 0.01], [0.4, 0.2, -0.3, 0.1]])
    monkeypatch.setattr(cv, "geodesic_ivp", counted)
    passes = []
    for p, q in zip(P, Q):
        rows.clear()
        cv.geodesic_between(eh, p, q)
        passes.append(len(rows))
    rows.clear()
    _, _, reasons = cv.geodesic_between(eh, P, Q)
    assert reasons == [None] * 3
    # one stacked call per pass, over the rows not yet converged
    assert len(rows) == max(passes)
    assert rows == [sum(k > i for k in passes) for i in range(max(passes))]


#: a chart whose metric is x^2-smooth on x >= 0 and undefined at x < 0
#: (sqrt of a negative number), so a geodesic crossing x = 0 fails there
SQRT_CHART = "dim 2; coords x y; g = [[1, 0], [0, 1 + sqrt(x)^4]];"


def test_geodesic_between_reraises_evaluation_errors():
    m = mt.parse_metric(SQRT_CHART)
    with pytest.raises(RuntimeError, match="shooting integration failed: expression undefined"):
        cv.geodesic_between(m, [0.5, 0.0], [-0.5, 0.3])


def _reference_rhs(m, variational):
    """The geodesic right-hand side at one state from the unstacked jets,
    as scipy's solve_ivp calls it."""
    n = m.dim

    def rhs(t, y):
        x, vel = y[:n], y[n:2 * n]
        jets = cv.assemble_gamma_jet(*m.derivative_fn(2 if variational else 1)(x))
        gv = jets[0] @ vel
        if not variational:
            return np.concatenate([vel, -(gv @ vel)])
        J = y[2 * n:2 * n + n * n].reshape(n, n)
        K = y[2 * n + n * n:].reshape(n, n)
        dgvv = (jets[1] @ vel) @ vel
        dK = -(dgvv.T @ J) - 2.0 * (gv @ K)
        return np.concatenate([vel, -(gv @ vel), K.ravel(), dK.ravel()])

    return rhs


SHOTS = [("sphere", [1.2, 0.3], [0.4, 0.7]),
         ("cone", [1.0, 0.2], [0.4, 1.1]),
         ("eh", [2.2, 1.3, 0.8, 1.1], [0.3, -0.1, 0.2, 0.15])]


@pytest.mark.parametrize("variational", [False, True])
@pytest.mark.parametrize("name, p, v", SHOTS)
def test_stepper_matches_scipy_dop853(name, p, v, variational, sphere, eh):
    from scipy.integrate import solve_ivp
    m = {"sphere": sphere, "cone": mt.exact_cone(0.7), "eh": eh}[name]
    n = m.dim
    y0 = np.concatenate([p, v] + ([np.zeros(n * n), np.eye(n).ravel()] if variational else []))
    # the stepper's RMS norm over (x, v) is scipy's over all d components
    # with atol and rtol scaled by c = sqrt(2n/d) on (x, v) and atol = inf
    # on (J, K)
    c = math.sqrt(2 * n / len(y0))
    atol = np.full(len(y0), math.inf)
    atol[:2 * n] = c * 1e-10
    want = solve_ivp(_reference_rhs(m, variational), (0.0, 1.0), y0, method="DOP853",
                     rtol=c * 1e-10, atol=atol)
    got = cv.geodesic_ivp(m, p, v, 1.0, rtol=1e-10, atol=1e-10, variational=variational)
    scale = np.abs(want.y[:, -1]).max()
    assert np.abs(got.y[:, -1] - want.y[:, -1]).max() <= 1e-9 * scale
    assert got.nfev == want.nfev
    assert np.array_equal(got.t.shape, want.t.shape)


@pytest.mark.parametrize("name, p, v", SHOTS)
def test_a_shots_steps_are_its_geodesics_steps(name, p, v, sphere, eh):
    """The step control reads (x, v) only, so the variational integration
    takes the plain one's steps and (x, v) states, bit for bit, and tests
    the same stage points against the chart."""
    m = {"sphere": sphere, "cone": mt.exact_cone(0.7), "eh": eh}[name]
    n = m.dim
    plain = cv.geodesic_ivp(m, p, v, 1.0)
    shot = cv.geodesic_ivp(m, p, v, 1.0, variational=True)
    assert np.array_equal(shot.t, plain.t)
    assert np.array_equal(shot.y[:2 * n], plain.y)
    assert shot.left_chart is plain.left_chart is False


@pytest.mark.parametrize("variational", [False, True])
@pytest.mark.parametrize("name", ["sphere", "cone", "eh"])
def test_the_spray_is_the_christoffel_right_hand_side(name, variational, sphere, eh):
    """The contracted spray gives Gamma(v, v), Gamma v and dGamma(v, v) of
    the assembled Christoffel jets up to rounding, and each stacked row is
    bitwise its one-row call."""
    m = {"sphere": sphere, "cone": mt.exact_cone(0.7), "eh": eh}[name]
    n = m.dim
    rng = np.random.default_rng(11)
    X = m.sample_interior(rng, 20)
    Y = np.concatenate([X, rng.normal(size=(20, n + (2 * n * n if variational else 0)))],
                       axis=1)
    rhs = cv._geodesic_rhs(m, variational)
    F, errors = rhs(Y)
    assert errors == {}
    reference = _reference_rhs(m, variational)
    for k, y in enumerate(Y):
        want = reference(0.0, y)
        assert np.abs(F[k] - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(F[k], rhs(Y[k][None])[0][0])


def test_a_singular_metric_row_fails_alone():
    m = mt.parse_metric("dim 2; coords x y; g = [[x^2, 0], [0, 1]];")
    P = np.array([[0.5, 0.2], [0.0, 0.2], [1.5, 0.4]])
    W = np.array([[0.3, 0.1], [0.3, 0.1], [-0.2, 0.3]])
    for variational in (False, True):
        rhs = cv._geodesic_rhs(m, variational)
        Y = np.concatenate([P, W, np.ones((3, 8 if variational else 0))], axis=1)
        F, errors = rhs(Y)
        assert list(errors) == [1]
        assert isinstance(errors[1], np.linalg.LinAlgError)
        for k in (0, 2):
            assert np.array_equal(F[k], rhs(Y[k:k + 1])[0][0])
    stack = cv.geodesic_ivp(m, P, W, 0.5)
    assert isinstance(stack.rows[1], np.linalg.LinAlgError)
    for k in (0, 2):
        assert np.array_equal(stack.rows[k].y, cv.geodesic_ivp(m, P[k], W[k], 0.5).y)


def _cone_and_eh_pairs():
    rng = np.random.default_rng(3)
    cone = mt.exact_cone(0.7)
    eh = mt.rescaled(mt.eguchi_hanson(1.0, r_max=32.0), 1 / 8.0)

    def eh_points(k):
        return np.c_[rng.uniform(8, 16, k), rng.uniform(0.7, 2.4, k),
                     rng.uniform(0.5, 2.5, k), rng.uniform(0.5, 2.5, k)]

    return [(cone, np.c_[rng.uniform(0.3, 1.6, 9), rng.uniform(0, 6, 9)],
             np.c_[rng.uniform(0.3, 1.6, 9), rng.uniform(0, 6, 9)]),
            (eh, eh_points(4), eh_points(4))]


@pytest.mark.parametrize("variational", [False, True])
def test_stacked_rows_are_their_single_row_integrations(variational):
    for m, P, Q in _cone_and_eh_pairs():
        stack = cv.geodesic_ivp(m, P, Q - P, 1.0, rtol=1e-7, atol=1e-9,
                                variational=variational)
        for k, row in enumerate(stack.rows):
            one = cv.geodesic_ivp(m, P[k], Q[k] - P[k], 1.0, rtol=1e-7, atol=1e-9,
                                  variational=variational)
            assert np.array_equal(row.t, one.t) and np.array_equal(row.y, one.y)
            assert row.left_chart == one.left_chart
            assert row.nfev == one.nfev
        assert stack.nfev == sum(row.nfev for row in stack.rows)


def test_stacked_shots_are_their_single_pair_shots():
    for m, P, Q in _cone_and_eh_pairs():
        V, lengths, reasons = cv.geodesic_between(m, P, Q, rtol=1e-7, atol=1e-9, tol=1e-7,
                                                  max_iter=8)
        for k in range(len(P)):
            try:
                v, length = cv.geodesic_between(m, P[k], Q[k], rtol=1e-7, atol=1e-9,
                                                tol=1e-7, max_iter=8)
            except RuntimeError as err:
                assert reasons[k] == str(err)
                assert np.isnan(lengths[k])
                continue
            assert reasons[k] is None
            assert np.array_equal(V[k], v) and lengths[k] == length


def test_a_row_that_leaves_the_chart_fails_alone():
    m = mt.parse_metric(SQRT_CHART)
    P = np.array([[0.5, 0.0], [0.5, 0.0], [1.0, 0.2]])
    W = np.array([[0.3, 0.4], [-1.0, 0.3], [-0.2, 0.1]])    # row 1 crosses x = 0
    stack = cv.geodesic_ivp(m, P, W, 1.0, variational=True)
    assert isinstance(stack.rows[1], ex.ExprEvalError)
    with pytest.raises(ex.ExprEvalError) as err:
        cv.geodesic_ivp(m, P[1], W[1], 1.0, variational=True)
    assert str(stack.rows[1]) == str(err.value)
    for k in (0, 2):
        one = cv.geodesic_ivp(m, P[k], W[k], 1.0, variational=True)
        assert np.array_equal(stack.rows[k].y, one.y)
    # the same through the shooting: one reason, the others converge
    V, lengths, reasons = cv.geodesic_between(m, P, P + W)
    with pytest.raises(RuntimeError) as err:
        cv.geodesic_between(m, P[1], P[1] + W[1])
    assert reasons == [None, str(err.value), None]
    assert reasons[1].startswith("shooting integration failed: expression undefined")
    assert np.isnan(lengths[1]) and np.isfinite(lengths[[0, 2]]).all()


def test_a_shot_that_dips_out_of_the_chart_between_its_states_fails():
    """On the exact cone with r_min raised, a shot whose geodesic passes
    below r_min for 2.8% of its length, between two of its accepted states
    and between two of 24 evenly spaced times, converges and fails with
    the chart reason; its stacked neighbour and the same shot on the cone
    down to its vertex converge, and a NumericMetric, with no chart, tests
    nothing."""
    p, q, r_min, length, dip = dipping_cone_pair()
    assert dip < 1 / 24
    # the dip is centred at t = 0.5, and each of the 24 times lies outside it
    assert (np.abs(np.linspace(0.0, 1.0, 24) - 0.5) > dip / 2).all()
    mid = 0.5 * (p + q)
    cone = mt.exact_cone(0.7, r_min=r_min)
    opts = dict(rtol=1e-7, atol=1e-9, tol=1e-7, max_iter=8)
    P, Q = np.array([p, p]), np.array([q, mid + [0.2, 0.0]])
    V, lengths, reasons = cv.geodesic_between(cone, P, Q, **opts)
    assert reasons == ["shot leaves the chart domain", None]
    assert np.isnan(lengths[0]) and np.isfinite(lengths[1])
    with pytest.raises(RuntimeError, match="shot leaves the chart domain"):
        cv.geodesic_between(cone, p, q, **opts)
    # the path of the shot: its accepted states stay in the chart
    v, shot_length = cv.geodesic_between(mt.exact_cone(0.7), p, q, **opts)
    assert shot_length == pytest.approx(length, rel=1e-6)
    path = cv.geodesic_ivp(cone, p, v, 1.0, rtol=1e-7, atol=1e-9)
    assert path.left_chart and cone.in_domain(path.y[:2].T).all()
    assert not cv.geodesic_ivp(mt.exact_cone(0.7), p, v, 1.0, rtol=1e-7, atol=1e-9).left_chart
    numeric = cv.NumericMetric(cone.evaluate, 2)
    assert cv.geodesic_between(numeric, p, q, **opts)[1] == pytest.approx(length, rel=1e-6)


def test_the_chart_test_is_one_stacked_call_per_stepper_iteration(monkeypatch):
    """The chart test adds no right-hand side: a stack of shots makes 2 +
    12 k right-hand-side calls over k stepper iterations, and at most k
    `in_domain` calls, each on the 13 points of every accepted step."""
    rhs_calls, checks = counting_rhs(monkeypatch), []
    in_domain = mt.MetricSpec.in_domain

    def counted(self, point, tol=0.0, wrap=False):
        if tol == cv.DOMAIN_TOL:
            checks.append(len(point))
        return in_domain(self, point, tol, wrap)

    monkeypatch.setattr(mt.MetricSpec, "in_domain", counted)
    (m, P, Q), _ = _cone_and_eh_pairs()
    stack = cv.geodesic_ivp(m, P, Q - P, 1.0, rtol=1e-7, atol=1e-9, variational=True)
    iterations = (len(rhs_calls) - 2) // 12
    assert len(rhs_calls) == 2 + 12 * iterations
    assert stack.nfev == sum(rhs_calls)
    assert 0 < len(checks) <= iterations and all(k % 13 == 0 for k in checks)
    steps = sum(len(row.t) - 1 for row in stack.rows)
    assert sum(checks) == 13 * steps


def test_a_row_at_a_singular_metric_fails_alone(sphere):
    # the sphere chart's metric diag(1, sin^2 th) is singular at th = 0
    P = np.array([[0.0, 0.5], [1.0, 0.5]])
    W = np.array([[0.3, 0.2], [0.3, 0.2]])
    stack = cv.geodesic_ivp(sphere, P, W, 1.0)
    with pytest.raises(np.linalg.LinAlgError) as err:
        cv.geodesic_ivp(sphere, P[0], W[0], 1.0)
    assert isinstance(stack.rows[0], np.linalg.LinAlgError)
    assert str(stack.rows[0]) == str(err.value)
    assert np.array_equal(stack.rows[1].y, cv.geodesic_ivp(sphere, P[1], W[1], 1.0).y)


def test_stacked_gamma_jets_are_row_by_row(eh, cone_smooth):
    """Each row of a stacked jet, orders 1-3, is the same bits alone in a
    one-row stack and at the point itself."""
    rng = np.random.default_rng(5)
    for m, lo, hi in ((cone_smooth, [0.1, 0.0], [1.5, 6.0]),
                      (eh, [1.5, 0.5, 0.5, 0.5], [3.0, 2.5, 2.5, 2.5])):
        X = rng.uniform(lo, hi, size=(17, m.dim))
        derivs = [np.stack(d) for d in zip(*(m.derivative_fn(3)(x) for x in X))]
        jets = cv.assemble_gamma_jet(*derivs)
        assert len(jets) == 3
        for k in range(len(X)):
            one = cv.assemble_gamma_jet(*(d[k:k + 1] for d in derivs))
            single = cv.assemble_gamma_jet(*(d[k] for d in derivs))
            for jet, row, point in zip(jets, one, single):
                assert np.array_equal(jet[k], row[0]) and np.array_equal(jet[k], point)


def test_scaling_laws(eh, rng):
    lam = 2.0
    scaled = mt.rescaled(eh, lam)
    for p in eh.sample_interior(rng, 3, margin=0.2):
        g1 = cv.christoffel(eh, p).gamma
        g2 = cv.christoffel(scaled, p).gamma
        assert np.abs(g1 - g2).max() <= 1e-9 * max(1, np.abs(g1).max())
        r1 = cv.riemann(eh, p).rlow
        r2 = cv.riemann(scaled, p).rlow
        assert np.abs(lam ** 2 * r1 - r2).max() <= 1e-9 * np.abs(r2).max()
        u, v = np.eye(4)[0], np.eye(4)[1]
        s1 = cv.sectional(eh, p, u, v)
        s2 = cv.sectional(scaled, p, u, v)
        assert s2 == pytest.approx(s1 / lam ** 2, rel=1e-9)
        j1, j2 = cv.curvature_gradient(eh, p), cv.curvature_gradient(scaled, p)
        n1 = cv.tensor_norm(j1.nabla_r, j1.G, "lllll")
        n2 = cv.tensor_norm(j2.nabla_r, j2.G, "lllll")
        assert n2 == pytest.approx(n1 / lam ** 3, rel=1e-9)


def test_fd_machinery_matches_symbolic(sphere):
    # the Richardson FD mirror reproduces the exact Ricci of the sphere
    num = cv.NumericMetric(stacked(sphere.evaluate), 2)
    p = np.array([1.0, 0.7])
    ric_fd = num.ricci(p)
    ric = cv.ricci(sphere, p)
    assert np.abs(ric_fd - ric).max() <= 1e-7


# the per-point Richardson stencils that the stacked ones replaced

def _second_once(fun, p, a, b, h, f0):
    ea, eb = np.zeros(len(p)), np.zeros(len(p))
    ea[a] = h
    eb[b] = h
    if a == b:
        return (fun(p + ea) - 2.0 * f0 + fun(p - ea)) / (h * h)
    return (fun(p + ea + eb) - fun(p + ea - eb) - fun(p - ea + eb)
            + fun(p - ea - eb)) / (4 * h * h)


def _reference_hessian(fun, p, h1=cv.FD_H1_SECOND, h2=cv.FD_H2_SECOND):
    n = len(p)
    f0 = fun(p)
    w = h1 * h1 / (h1 * h1 - h2 * h2)
    out = np.zeros((n, n) + f0.shape)
    for a in range(n):
        for b in range(a, n):
            out[a, b] = out[b, a] = (w * _second_once(fun, p, a, b, h2, f0)
                                     + (1 - w) * _second_once(fun, p, a, b, h1, f0))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_fd_stencils_are_one_call(n):
    """fd_gradient and fd_hessian evaluate their whole stencil, f0 included,
    in one call, and match the per-point stencils to 1e-12 relative."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, 2, 2))

    def f(p):
        return np.cos(np.tensordot(p, A, axes=1)) + np.outer(p[:2], p[-2:]).sum()

    calls = []

    def fun(points):
        calls.append(len(points))
        return stacked(f)(points)

    p = rng.uniform(-1, 1, size=n)
    for fd, ref, rows in ((cv.fd_gradient, reference_gradient, 4 * n),
                          (cv.fd_hessian, _reference_hessian, 1 + 4 * n * n)):
        calls.clear()
        got, want = fd(fun, p), ref(f, p)
        assert calls == [rows]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_stencils_over_a_stack_of_centres(n):
    """A stack of B centres is one `fun` call over all B stencils, and each
    centre's partials are bitwise its point partials."""
    rng = np.random.default_rng(10 + n)
    A = rng.normal(size=(n, 2, 2))

    def f(p):
        return np.sin(np.tensordot(p, A, axes=1)) * np.exp(p.sum())

    calls = []

    def fun(points):
        calls.append(len(points))
        return stacked(f)(points)

    P = rng.uniform(-1, 1, size=(5, n))
    for fd, rows in ((cv.fd_gradient, 4 * n), (cv.fd_hessian, 1 + 4 * n * n)):
        calls.clear()
        got = fd(fun, P)
        assert calls == [5 * rows]
        want = np.stack([fd(fun, p) for p in P])
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_numeric_ricci_over_a_stack_is_three_calls_of_point_rows(cone_pair):
    """NumericMetric.ricci of a stack of B points makes three `fun` calls,
    and each row is bitwise the point's Ricci; riemann gives one stacked
    jet, whose rows are the point jets."""
    g, gp = cone_pair
    chart = bd.LiftedMetricChart(g, gp, bd.FramePoint.anchor([0.5, 1.0], 2))
    calls = []

    def fun(Y):
        calls.append(len(Y))
        return chart.metric_matrix(Y)

    num = cv.NumericMetric(fun, chart.dim)
    Y = np.array([[0.5, 1.0, 0.0], [0.8, 2.0, 0.1], [1.2, 3.5, -0.2]])
    got = num.ricci(Y)
    N = chart.dim
    assert calls == [3, 3 * 4 * N, 3 * (1 + 4 * N * N)]
    assert got.shape == (3, N, N)
    for y, ric in zip(Y, got):
        assert np.array_equal(ric, num.ricci(y))
    jets = num.riemann(Y)
    assert jets.point.tolist() == Y.tolist()
    assert all(np.array_equal(jets.rlow[k], num.riemann(y).rlow) for k, y in enumerate(Y))


# ---------------------------------------------------------------------------
# the Christoffel jet against the three separate assemblies it replaced

def _ref_ginv(G):
    return np.linalg.solve(G, np.eye(G.shape[0]))


def _ref_gamma(G, dG):
    A = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    return 0.5 * np.einsum("kl,lij->kij", _ref_ginv(G), A)


def _ref_dgamma(G, dG, d2G):
    ginv = _ref_ginv(G)
    A = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    dA = (np.einsum("mijl->mlij", d2G) + np.einsum("mjil->mlij", d2G)
          - np.einsum("mlij->mlij", d2G))
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dG, ginv)
    return 0.5 * (np.einsum("mkl,lij->mkij", dginv, A)
                  + np.einsum("kl,mlij->mkij", ginv, dA))


def _ref_d2gamma(G, dG, d2G, d3G):
    ginv = _ref_ginv(G)
    A = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    dA = (np.einsum("mijl->mlij", d2G) + np.einsum("mjil->mlij", d2G) - d2G)
    d2A = (np.einsum("mnijl->mnlij", d3G) + np.einsum("mnjil->mnlij", d3G) - d3G)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dG, ginv)
    d2ginv = -(np.einsum("nka,mab,bl->mnkl", dginv, dG, ginv)
               + np.einsum("ka,mnab,bl->mnkl", ginv, d2G, ginv)
               + np.einsum("ka,mab,nbl->mnkl", ginv, dG, dginv))
    return 0.5 * (np.einsum("mnkl,lij->mnkij", d2ginv, A)
                  + np.einsum("mkl,nlij->mnkij", dginv, dA)
                  + np.einsum("nkl,mlij->mnkij", dginv, dA)
                  + np.einsum("kl,mnlij->mnkij", ginv, d2A))


def _symmetric_jet(rng, n):
    """An SPD G and partials symmetric in the matrix and direction axes."""
    B = rng.normal(size=(n, n))
    G = B @ B.T + n * np.eye(n)
    dG = rng.normal(size=(n, n, n))
    dG = dG + dG.transpose(0, 2, 1)
    d2G = rng.normal(size=(n, n, n, n))
    d2G = d2G + d2G.transpose(1, 0, 2, 3)
    d2G = d2G + d2G.transpose(0, 1, 3, 2)
    d3G = rng.normal(size=(n,) * 5)
    d3G = d3G + d3G.transpose(0, 1, 2, 4, 3)
    return G, dG, d2G, d3G


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_gamma_jet_equals_separate_assemblies(n, seed):
    G, dG, d2G, d3G = _symmetric_jet(np.random.default_rng(seed), n)
    want = [_ref_gamma(G, dG), _ref_dgamma(G, dG, d2G), _ref_d2gamma(G, dG, d2G, d3G)]
    for k in (1, 2, 3):
        got = cv.assemble_gamma_jet(G, *(dG, d2G, d3G)[:k])
        assert len(got) == k
        # Gamma adds the einsum's terms in its order; the partials take
        # matmuls, which may round otherwise
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1:], want[1:]):
            assert np.abs(a - b).max() <= 4e-15 * np.abs(b).max()


def test_numeric_metric_geodesic_matches_symbolic(sphere):
    # geodesic_ivp takes the finite-difference source as well
    num = cv.NumericMetric(stacked(sphere.evaluate), 2)
    p, v = [1.2, 0.3], [0.4, 0.7]
    got = cv.geodesic_ivp(num, p, v, 1.0, rtol=1e-9, atol=1e-9).y[:, -1]
    want = cv.geodesic_ivp(sphere, p, v, 1.0, rtol=1e-9, atol=1e-9).y[:, -1]
    assert np.abs(got - want).max() <= 1e-7


def test_coordinate_plane_sup_equals_sectional_loop(sphere, eh, s3_quarter, cone_smooth):
    """The coordinate-plane supremum read from one Riemann tensor equals,
    bit for bit, the maximum of `sectional` over the coordinate planes."""
    cases = [(sphere, [1.0, 0.5]), (cone_smooth, [0.15, 1.0]),
             (s3_quarter, [1.3, 0.8, 1.1]), (eh, [1.8, 1.2, 0.7, 1.0])]
    for m, p in cases:
        n = m.dim
        eye = np.eye(n)
        want = max(abs(cv.sectional(m, p, eye[i], eye[j]))
                   for i in range(n) for j in range(i + 1, n))
        assert cv.sup_sectional_coordinate_planes(m, p) == want
        assert cv.coordinate_plane_sup(m.evaluate(p), cv.riemann(m, p).rlow) == want


#: x^1.5 is real for x >= 0 only: a geodesic heading to x < 0 leaves its domain
FRACTIONAL_POWER_CHART = "dim 2; coords x y; g = [[2 + x^1.5, 0], [0, 1]];"


def test_a_fractional_power_of_a_negative_base_fails_the_row():
    m = mt.parse_metric(FRACTIONAL_POWER_CHART)
    with pytest.raises(ex.ExprEvalError, match="expression undefined at"):
        cv.geodesic_ivp(m, [0.2, 0.0], [-3.0, 0.0], 1.0)
    P = np.array([[0.2, 0.0], [0.5, 0.0]])
    W = np.array([[-3.0, 0.0], [0.2, 0.1]])
    stack = cv.geodesic_ivp(m, P, W, 1.0)
    assert isinstance(stack.rows[0], ex.ExprEvalError)
    assert np.array_equal(stack.rows[1].y, cv.geodesic_ivp(m, P[1], W[1], 1.0).y)


def _counting_derivative_fn(monkeypatch):
    """Patch MetricSpec.derivative_fn so each evaluator records the number
    of rows of every call (1 for a point); returns {order: [rows, ...]}."""
    calls = {}
    original = mt.MetricSpec.derivative_fn

    def derivative_fn(self, order):
        fn = original(self, order)

        def counted(x):
            calls.setdefault(order, []).append(len(x) if np.ndim(x) == 2 else 1)
            return fn(x)

        return counted

    monkeypatch.setattr(mt.MetricSpec, "derivative_fn", derivative_fn)
    return calls


@pytest.mark.parametrize("variational", [False, True])
def test_a_stacked_right_hand_side_evaluates_each_order_once(variational, monkeypatch):
    calls = _counting_derivative_fn(monkeypatch)
    jet_rows = counting_rhs(monkeypatch)
    m, P, Q = _cone_and_eh_pairs()[1]
    stack = cv.geodesic_ivp(m, P, Q - P, 1.0, rtol=1e-7, atol=1e-9, variational=variational)
    assert all(isinstance(row, cv.Trajectory) for row in stack.rows)
    # one stacked jet call per right-hand side, over the rows in it: G and
    # dG, with d2G as well when variational
    assert calls == {(2 if variational else 1): jet_rows}
    assert max(jet_rows) == len(P)


def test_curve_length_evaluates_the_metric_once_per_curve(eh, monkeypatch):
    from framelab import holonomy as hl
    calls = _counting_derivative_fn(monkeypatch)
    seg = hl.line_segment([2.0, 1.0, 0.5, 0.5], [2.5, 1.2, 0.8, 0.4])
    cv.curve_length(eh, seg.point, seg.velocity)
    assert calls == {0: [256]}
    calls.clear()
    loop = hl.plaquette_loop(np.array([2.0, 1.0, 0.5, 0.5]), 0, 1, 0.1)
    loop.compute_length(eh)
    assert calls == {0: [1024]}


def test_a_numeric_metric_row_that_leaves_the_chart_fails_alone():
    # the function raises for a whole stencil stack with one bad row, so
    # the jets fall back to point evaluations, each row on its own
    m = mt.parse_metric(SQRT_CHART)
    num = cv.NumericMetric(stacked(m.evaluate), 2)
    P = np.array([[0.5, 0.0], [0.5, 0.0], [1.0, 0.2]])
    W = np.array([[0.3, 0.4], [-1.0, 0.3], [-0.2, 0.1]])    # row 1 crosses x = 0
    stack = cv.geodesic_ivp(num, P, W, 1.0, rtol=1e-8, atol=1e-8)
    with pytest.raises(ex.ExprEvalError) as err:
        cv.geodesic_ivp(num, P[1], W[1], 1.0, rtol=1e-8, atol=1e-8)
    assert str(stack.rows[1]) == str(err.value)
    for k in (0, 2):
        one = cv.geodesic_ivp(num, P[k], W[k], 1.0, rtol=1e-8, atol=1e-8)
        assert np.array_equal(stack.rows[k].y, one.y)
