import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from framelab import ortho as ot

from conftest import (SCHUR_BLOCK_TOL, ReferenceLogError, reference_group_distance,
                      reference_group_log, reference_quotient_distance, ricci_biinvariant,
                      sectional_biinvariant)


def random_skew(rng, n):
    return ot.unvec_skew(rng.normal(size=n * (n - 1) // 2), n)


def random_orthogonal(rng, n, reflect=False):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if reflect != (np.linalg.det(q) < 0):
        q[:, 0] = -q[:, 0]
    return q


def test_basis_orthogonality():
    for n in (2, 3, 4):
        basis = ot.skew_basis(n)
        assert len(basis) == n * (n - 1) // 2
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                want = 2.0 if i == j else 0.0
                assert ot.biinvariant_inner(a, b) == pytest.approx(want, abs=1e-14)


def test_b_inner_examples():
    e12 = ot.skew_basis_element(4, 0, 1)
    e13 = ot.skew_basis_element(4, 0, 2)
    assert ot.biinvariant_inner(e12, e12) == pytest.approx(2.0)
    assert ot.biinvariant_inner(e12, e13) == pytest.approx(0.0)


def test_b_inner_expansion(rng):
    a = random_skew(rng, 4)
    want = 2 * sum(a[i, j] ** 2 for i, j in ot.skew_pairs(4))
    assert ot.biinvariant_inner(a, a) == pytest.approx(want, rel=1e-12)


def test_b_rejects_non_skew():
    with pytest.raises(ot.NotSkewError):
        ot.biinvariant_inner(np.eye(2), np.eye(2))


def test_ad_invariance(rng):
    for n in (3, 4):
        a = random_skew(rng, n)
        c = random_skew(rng, n)
        for reflect in (False, True):
            g = random_orthogonal(rng, n, reflect)
            lhs = ot.biinvariant_inner(g @ a @ g.T, g @ c @ g.T)
            assert lhs == pytest.approx(ot.biinvariant_inner(a, c), rel=1e-12, abs=1e-12)


def test_exp_identity():
    assert np.allclose(ot.group_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_rotation_closed_form(rng):
    th = 0.9
    got = ot.group_exp(th * ot.skew_basis_element(2, 0, 1))
    # exp(theta e12) rotates with matrix [[c, s], [-s, c]] for e12[0,1] = 1
    c, s = math.cos(th), math.sin(th)
    assert np.allclose(got, [[c, s], [-s, c]], atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_matrix_is_not_orthogonal(bad):
    # the residual is NaN, and NaN > ORTH_TOL is False: only a small residual passes
    A = np.eye(3)
    A[0, 0] = bad
    for stack in (A, np.stack([np.eye(3), A])):
        with pytest.raises(ot.NotOrthogonalError):
            ot.check_orthogonal(stack)


def principal_log(A):
    """The log of one orthogonal matrix, as the one row of `_principal_logs`
    (which must not refuse it)."""
    L, ok = ot._principal_logs(ot.check_orthogonal(A)[None])
    assert ok[0]
    return L[0]


def test_log_exp_round_trip():
    a = 0.3 * ot.skew_basis_element(3, 0, 1) + 0.1 * ot.skew_basis_element(3, 0, 2)
    back = principal_log(ot.group_exp(a))
    assert np.abs(back - a).max() <= 1e-12


def test_log_rejects_angle_pi():
    # -I, a half turn, and a reflection (an eigenvalue -1 in the other component)
    for A in (-np.eye(2), ot.rotation2(math.pi), np.diag([1.0, -1.0, 1.0])):
        L, ok = ot._principal_logs(A[None])
        assert not ok[0] and np.isnan(L[0]).all()
        with pytest.raises(ReferenceLogError):
            reference_group_log(A)


def skew_with_angles(rng, angles, n):
    """Q a Q^T for a random Q in SO(n) and a block-diagonal skew a whose
    2x2 blocks rotate by the given angles."""
    a = np.zeros((n, n))
    for k, t in enumerate(angles):
        a[2 * k, 2 * k + 1], a[2 * k + 1, 2 * k] = -t, t
    q = random_orthogonal(rng, n)
    return q @ a @ q.T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_log_matches_schur_reference(n):
    rng = np.random.default_rng(100 + n)
    cases = [rng.uniform(0.05, 3.0, size=n // 2) for _ in range(40)] + [np.full(n // 2, 3.0)]
    for angles in cases:
        A = ot.group_exp(skew_with_angles(rng, angles, n))
        assert np.abs(principal_log(A) - reference_group_log(A)).max() <= 1e-13


def test_group_log_matches_schur_reference_isoclinic():
    """theta (e01 + e23): every eigenvalue is double, in o(4) conjugated."""
    rng = np.random.default_rng(7)
    iso = ot.skew_basis_element(4, 0, 1) + ot.skew_basis_element(4, 2, 3)
    for theta in np.linspace(0.1, 3.0, 12):
        q = random_orthogonal(rng, 4)
        A = ot.group_exp(theta * q @ iso @ q.T)
        assert np.abs(principal_log(A) - reference_group_log(A)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_principal_logs_rows_are_their_group_log(n):
    rng = np.random.default_rng(200 + n)
    A = np.array([random_orthogonal(rng, n, reflect=bool(rng.integers(2))) for _ in range(30)]
                 + [ot.group_exp(skew_with_angles(rng, [math.pi] + [0.5] * (n // 2 - 1), n))])
    L, ok = ot._principal_logs(A)
    assert 0 < ok.sum() < len(A)
    for row, good, a in zip(L, ok, A):
        # a stacked row is bitwise the log of its matrix alone
        one, one_ok = ot._principal_logs(a[None])
        assert one_ok[0] == good
        if good:
            assert np.array_equal(row, one[0])
        else:
            assert np.isnan(row).all() and np.isnan(one[0]).all()


def reference_exp_derivative(a, b):
    """exp(a) and exp(-a) Dexp_a[b] for one skew a and each direction of b,
    from scipy's Pade `expm` and `expm_frechet`."""
    E = expm(a)
    return E, np.array([E.T @ expm_frechet(a, d)[1] for d in b])


def assert_matches_reference(a, b):
    E, D = ot.group_exp_derivative(a, b)
    E_ref, D_ref = reference_exp_derivative(a, b)
    assert np.abs(E - E_ref).max() <= 1e-14
    assert np.abs(D - D_ref).max() <= 1e-14
    assert np.array_equal(ot.group_exp(a), E)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_exp_derivative_matches_scipy_references(n):
    """Random skew a with |a|_b from 1e-8 to 3, in the skew basis and in
    random directions; at a = 0 exp is I and the derivative is b, exactly."""
    rng = np.random.default_rng(n)
    basis = np.array(ot.skew_basis(n))
    for scale in (1e-8, 0.1, 1.0, 3.0):
        for _ in range(10):
            a = random_skew(rng, n)
            assert_matches_reference(a * (scale / ot.b_norm(a)), basis)
    b = rng.normal(size=(5, n, n))
    assert_matches_reference(random_skew(rng, n), b)
    E, D = ot.group_exp_derivative(np.zeros((n, n)), b)
    assert np.array_equal(E, np.eye(n))
    assert np.array_equal(D, b)


@pytest.mark.parametrize("theta", [0.3, 1.0, 3.0, math.pi - 1e-7])
def test_group_exp_derivative_double_eigenvalue(theta):
    """theta (e01 + e23) in o(4) has each eigenvalue +-i theta twice."""
    e = ot.skew_basis_element
    assert_matches_reference(theta * (e(4, 0, 1) + e(4, 2, 3)), np.array(ot.skew_basis(4)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("theta", [math.pi - 1e-6, math.pi - 1e-9, math.pi])
def test_group_exp_derivative_near_angle_pi(n, theta):
    assert_matches_reference(theta * ot.skew_basis_element(n, 0, 1), np.array(ot.skew_basis(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_group_exp_rows_are_single_calls(n):
    rng = np.random.default_rng(10 + n)
    A = np.array([random_skew(rng, n) for _ in range(6)] + [np.zeros((n, n))])
    b = np.array(ot.skew_basis(n))
    E, D = ot.group_exp_derivative(A, b)
    assert E.shape == (7, n, n) and D.shape == (7, len(b), n, n)
    got = ot.group_exp(A)
    for k, a in enumerate(A):
        Ek, Dk = ot.group_exp_derivative(a, b)
        assert np.array_equal(E[k], Ek) and np.array_equal(D[k], Dk)
        assert np.array_equal(got[k], ot.group_exp(a))


def test_check_skew_rejects_a_stack_with_one_non_skew_member(rng):
    A = np.array([random_skew(rng, 3) for _ in range(4)])
    assert np.array_equal(ot.check_skew(A), A)
    A[2, 0, 1] += 1e-3
    with pytest.raises(ot.NotSkewError):
        ot.check_skew(A)
    with pytest.raises(ot.NotSkewError):
        ot.group_exp(A)


def test_group_distance_examples():
    assert ot.group_distance(np.eye(3), np.eye(3)) == 0.0
    th = 0.8
    assert ot.group_distance(np.eye(2), ot.rotation2(th)) == pytest.approx(
        math.sqrt(2) * th, rel=1e-12)
    refl = np.diag([1.0, -1.0])
    assert ot.group_distance(ot.rotation2(0.3), refl) == math.inf


def test_group_distance_biinvariant(rng):
    for n in (2, 4):
        u = random_orthogonal(rng, n)
        v = random_orthogonal(rng, n)
        w = random_orthogonal(rng, n)
        d = ot.group_distance(u, v)
        assert ot.group_distance(w @ u, w @ v) == pytest.approx(d, abs=1e-10)
        assert ot.group_distance(u @ w, v @ w) == pytest.approx(d, abs=1e-10)


def nudged(rng, u, dist):
    """u exp(a) with |a|_b = dist."""
    a = random_skew(rng, u.shape[0])
    return u @ ot.group_exp(a * (dist / ot.b_norm(a)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_distance_stack_matches_schur_reference(n):
    rng = np.random.default_rng(n)
    U = np.array([random_orthogonal(rng, n, reflect=bool(rng.integers(2))) for _ in range(200)])
    far = np.array([random_orthogonal(rng, n, reflect=bool(rng.integers(2))) for _ in U])
    near = np.array([nudged(rng, u, 10.0 ** rng.uniform(-10, -2)) for u in U])
    for V, atol in ((far, 1e-12), (near, math.sqrt(n) * SCHUR_BLOCK_TOL + 1e-12)):
        got = ot.group_distance(U, V)
        assert got.shape == (len(U),)
        want = np.array([reference_group_distance(u, v) for u, v in zip(U, V)])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.abs(got[fin] - want[fin]).max() <= atol


def test_group_distance_components_and_angle_pi():
    refl3 = np.diag([1.0, 1.0, -1.0])
    U = np.array([np.eye(3), np.eye(3), refl3, refl3, refl3])
    V = np.array([np.diag([-1.0, -1.0, 1.0]), refl3, np.eye(3),
                  np.diag([-1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, 1.0])])
    pi2 = math.pi * math.sqrt(2.0)
    assert ot.group_distance(U, V).tolist() == pytest.approx([pi2, math.inf, math.inf,
                                                              pi2, pi2], rel=1e-15)
    assert ot.group_distance(np.eye(4), -np.eye(4)) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert ot.group_distance(np.eye(2), ot.rotation2(math.pi)) == pytest.approx(pi2, rel=1e-15)
    assert ot.group_distance(ot.rotation2(0.3), np.diag([1.0, -1.0])) == math.inf
    assert isinstance(ot.group_distance(np.eye(2), ot.rotation2(0.3)), float)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_group_distance_rows_are_single_calls(n):
    rng = np.random.default_rng(10 + n)
    U = np.array([random_orthogonal(rng, n, reflect=bool(rng.integers(2))) for _ in range(40)])
    V = np.array([nudged(rng, u, 10.0 ** rng.uniform(-8, 0)) for u in U])
    rows = ot.group_distance(U, V)
    assert [float(x) for x in rows] == [ot.group_distance(u, v) for u, v in zip(U, V)]
    assert [float(x) for x in ot.group_distance(U[0], V)] == [ot.group_distance(U[0], v)
                                                             for v in V]
    assert [float(x) for x in ot.group_distance(U, V[0])] == [ot.group_distance(u, V[0])
                                                             for u in U]
    # the whole grid spans more than one eigenvalue block
    grid = ot.group_distance(U, V[:, None])
    assert grid.shape == (len(V), len(U)) and grid.size > ot.DISTANCE_BLOCK
    assert grid.tolist() == [[ot.group_distance(u, v) for u in U] for v in V]


def test_o2_closed_form_matches_eigenvalue_form():
    rng = np.random.default_rng(24)
    U = np.array([random_orthogonal(rng, 2, reflect=bool(rng.integers(2))) for _ in range(400)])
    far = np.array([random_orthogonal(rng, 2, reflect=bool(rng.integers(2))) for _ in U])
    near = np.array([nudged(rng, u, 10.0 ** rng.uniform(-12, -1)) for u in U])
    for V in (far, near):
        # _angle_norm, the n >= 3 path, is the reference
        got = ot.group_distance(U, V)
        want = ot._angle_norm(V @ np.swapaxes(U, -1, -2))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert fin.any() and (V is near or not fin.all())
        assert np.abs(got[fin] - want[fin]).max() <= 2e-15


def test_o2_closed_form_is_exactly_zero_on_symmetric_w():
    rng = np.random.default_rng(25)
    for u in [random_orthogonal(rng, 2, reflect=bool(k % 2)) for k in range(10)]:
        assert ot.group_distance(u, u) == 0.0
    # W = v exactly symmetric and a hair off I, orthogonal within ORTH_TOL
    assert ot.group_distance(np.eye(2), np.array([[1.0, 1e-12], [1e-12, 1.0]])) == 0.0


def test_o2_closed_form_at_minus_identity():
    # W_10 = sin(-pi) is a tiny negative number: atan2 gives -pi, not +pi
    W = ot.rotation2(-math.pi)
    assert W[1, 0] < 0
    assert ot.group_distance(np.eye(2), W) == math.sqrt(2.0) * math.pi
    assert ot.group_distance(np.eye(2), -np.eye(2)) == math.sqrt(2.0) * math.pi


def test_o2_distance_takes_no_eigenvalues(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    rng = np.random.default_rng(26)
    U = np.array([random_orthogonal(rng, 2, reflect=bool(rng.integers(2))) for _ in range(40)])
    ot.group_distance(U[0], U[1])
    ot.group_distance(U, U[::-1])
    ot.group_distance(U, U[:, None, None])
    assert calls == []
    ot.group_distance(np.eye(3), random_orthogonal(rng, 3))
    assert calls == [(1, 3, 3)]


def rotation_with_angles(rng, n, angles):
    """Q diag(R(t_1), R(t_2), ..., 1) Q^T for a random orthogonal Q."""
    D = np.eye(n)
    for k, t in enumerate(angles):
        D[2 * k:2 * k + 2, 2 * k:2 * k + 2] = ot.rotation2(t)
    Q = random_orthogonal(rng, n, reflect=bool(rng.integers(2)))
    return Q @ D @ Q.T


#: rotation angles from below the Schur block cut-off up to pi
ANGLES = st.one_of(st.floats(1e-13, 1e-8), st.floats(1e-8, 1e-4),
                   st.floats(1e-4, 3.0), st.floats(math.pi - 1e-6, math.pi))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from([0.0, 1e-13, 1e-11]))
def test_frobenius_bound_below_group_distance(data, n, seed, noise):
    # same component, nearly orthogonal inputs included: the bound never
    # exceeds the distance group_distance computes
    rng = np.random.default_rng(seed)
    angles = data.draw(st.lists(ANGLES, max_size=n // 2))
    u = random_orthogonal(rng, n, reflect=bool(rng.integers(2)))
    v = rotation_with_angles(rng, n, angles) @ u + noise * rng.uniform(-1, 1, (n, n))
    d = ot.group_distance(u, v)
    assert ot.frobenius_lower_bound(u, v) <= d


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_frobenius_sandwich(data, n, seed):
    # ||A - B||_F <= d_b(A, B) <= (pi/2) ||A - B||_F in one component, with
    # angles above the Schur block cut-off
    rng = np.random.default_rng(seed)
    angles = data.draw(st.lists(st.floats(1e-6, math.pi), max_size=n // 2))
    u = random_orthogonal(rng, n, reflect=bool(rng.integers(2)))
    v = rotation_with_angles(rng, n, angles) @ u
    frob = float(np.linalg.norm(u - v))
    d = ot.group_distance(u, v)
    assert frob <= d * (1 + 1e-9) + 1e-14
    assert d <= 0.5 * math.pi * frob * (1 + 1e-9) + 1e-14


def test_sectional_biinvariant_nonnegative(rng):
    """The sectional reference is nonnegative, and its numerators over a
    b-orthonormal basis sum to the bracket form of the Ricci reference."""
    for _ in range(10):
        a = random_skew(rng, 4)
        ric = 0.0
        for u in ot.skew_basis(4):
            u = u / ot.b_norm(u)
            k = sectional_biinvariant(a, u)
            assert k >= -1e-15
            ric += k * (ot.biinvariant_inner(a, a) - ot.biinvariant_inner(a, u) ** 2)
        assert ric == pytest.approx(ricci_biinvariant(a), rel=1e-12)


def test_ricci_biinvariant_closed_form(rng):
    """The bracket sum equals (n - 2)/4 b(xi, xi), the closed form of the
    VV block of `oneill._ricci_blocks`."""
    for n in (2, 3, 4):
        xi = random_skew(rng, n)
        want = 0.25 * (n - 2) * ot.biinvariant_inner(xi, xi)
        assert ricci_biinvariant(xi) == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# classification

def test_classify_identity_only():
    est = ot.classify_subgroup([np.eye(2)])
    assert est.label == "trivial"


def test_classify_cone_circle_samples():
    alpha = math.sqrt(2) - 1
    samples = [ot.rotation2((2 * math.pi * alpha * k) % (2 * math.pi)) for k in range(1, 51)]
    est = ot.classify_subgroup(samples)
    assert est.label == "SO(2)-circle"
    assert est.rank == 1


def test_classify_finite_cyclic():
    samples = [ot.rotation2(2 * math.pi * k / 3) for k in range(3)]
    est = ot.classify_subgroup(samples)
    assert est.label == "finite-cyclic(3)"
    assert est.order == 3


def test_classify_su2(rng):
    plus, _ = ot.su2_bases()
    samples = []
    for _ in range(25):
        c = rng.normal(size=3) * 0.4
        samples.append(ot.group_exp(sum(ci * b for ci, b in zip(c, plus))))
    est = ot.classify_subgroup(samples)
    assert est.label == "SU(2)-in-SO(4)"
    assert min(est.residuals["chirality_off_plus"],
               est.residuals["chirality_off_minus"]) <= 1e-6


def test_classify_full_so3(rng):
    samples = np.array([ot.group_exp(random_skew(rng, 3) * 0.4) for _ in range(25)])
    est = ot.classify_subgroup(samples)
    assert est.label == "full-SO(3)"


def test_classify_skips_an_angle_pi_sample_in_one_log_call(monkeypatch):
    calls = []
    principal_logs = ot._principal_logs
    monkeypatch.setattr(ot, "_principal_logs",
                        lambda A: calls.append(len(A)) or principal_logs(A))
    samples = [ot.rotation2(0.25 * k) for k in range(1, 5)] + [ot.rotation2(math.pi)]
    # d_b(I, rot pi) = pi sqrt 2 exceeds NEAR_IDENTITY: only the four
    # samples within it reach the one log call
    est = ot.classify_subgroup(samples)
    assert calls == [4]
    assert est.label == "SO(2)-circle"
    assert est.rank == 1
    assert abs(abs(ot.vec_skew(est.algebra_basis[0])[0]) - 1.0) <= 1e-14


def test_classify_empty_raises():
    with pytest.raises(ValueError):
        ot.classify_subgroup([])


def test_estimate_serializes_to_json(rng):
    samples = [ot.rotation2(0.2 * k) for k in range(8)]
    est = ot.classify_subgroup(samples)
    obj = json.loads(est.to_json())
    assert obj["class"] == est.label
    assert "generators" in obj and "residuals" in obj


# ---------------------------------------------------------------------------
# quotient pseudo-distance

def so2_estimate():
    return ot.classify_subgroup([ot.rotation2(0.1), ot.rotation2(0.25), ot.rotation2(0.4)])


def test_quotient_trivial_equals_group_distance(rng):
    H = ot.SubgroupEstimate.trivial(2)
    u = ot.rotation2(0.3)
    v = ot.rotation2(1.4)
    assert ot.quotient_distance(u, v, H) == pytest.approx(ot.group_distance(u, v))


def test_quotient_so2_collapses_rotations():
    H = so2_estimate()
    assert ot.quotient_distance(ot.rotation2(0.3), ot.rotation2(2.2), H) == 0.0


def test_quotient_so2_reflection_infinite():
    H = so2_estimate()
    refl = np.diag([1.0, -1.0])
    assert ot.quotient_distance(ot.rotation2(0.3), refl, H) == math.inf


def su2_estimate(rng, chirality):
    """H classified from 20 samples of exp of the self-dual (0) or
    anti-self-dual (1) ideal of o(4)."""
    ideal = ot.su2_bases()[chirality]
    samples = [ot.group_exp(sum(c * b for c, b in zip(rng.normal(size=3) * 0.4, ideal)))
               for _ in range(20)]
    H = ot.classify_subgroup(samples)
    assert H.label == "SU(2)-in-SO(4)"
    assert H.residuals["chirality"] == ("self-dual", "anti-self-dual")[chirality]
    return H, ideal


def test_quotient_vanishes_on_orbits_and_axioms(rng):
    H, plus = su2_estimate(rng, 0)
    # orbit: h u at distance 0 from u
    u = random_orthogonal(rng, 4)
    h = ot.group_exp(0.7 * plus[0] - 0.4 * plus[2])
    assert ot.quotient_distance(h @ u, u, H) <= 1e-12
    # symmetry and triangle inequality on random rotations
    pts = [random_orthogonal(rng, 4) for _ in range(3)]
    d = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                d[i, j] = ot.quotient_distance(pts[i], pts[j], H)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert d[i, j] == pytest.approx(d[j, i], abs=1e-12)
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


@pytest.mark.parametrize("chirality", [0, 1])
def test_su2_quotient_never_exceeds_the_search(rng, chirality):
    H, _ = su2_estimate(rng, chirality)
    us = np.array([random_orthogonal(rng, 4) for _ in range(30)])
    vs = np.array([random_orthogonal(rng, 4) for _ in range(30)])
    exact = ot.quotient_distance(us, vs, H)
    search = np.array([reference_quotient_distance(u, v, H) for u, v in zip(us, vs)])
    assert (exact <= search + 1e-12).all()


@pytest.mark.parametrize("chirality", [0, 1])
def test_su2_quotient_matches_a_grid_minimum(rng, chirality):
    """exp is 1-Lipschitz on the ideal (a bi-invariant metric has K >= 0),
    and exp of the ball |theta|_b <= 2 pi covers H = SU(2), so a cube grid
    of spacing s over it has a point within s sqrt(3) / 2 of any h."""
    H, ideal = su2_estimate(rng, chirality)
    axis = np.linspace(-2 * math.pi, 2 * math.pi, 33)
    theta = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    theta = theta[np.linalg.norm(theta, axis=1) <= 2 * math.pi + axis[1] - axis[0]]
    hs = ot.group_exp(np.einsum("ck,kij->cij", theta, np.array(ideal)))
    resolution = (axis[1] - axis[0]) * math.sqrt(3.0) / 2.0
    for _ in range(3):
        u = random_orthogonal(rng, 4)
        v = random_orthogonal(rng, 4)
        exact = ot.quotient_distance(u, v, H)
        grid = float(ot.group_distance(hs @ u, v).min())
        assert exact <= grid + 1e-12
        assert grid <= exact + resolution


@pytest.mark.parametrize("chirality", [0, 1])
def test_su2_quotient_is_invariant_under_H_and_stacks_bitwise(rng, chirality):
    H, ideal = su2_estimate(rng, chirality)
    us = np.array([random_orthogonal(rng, 4, reflect=k % 3 == 0) for k in range(12)])
    vs = np.array([random_orthogonal(rng, 4, reflect=k % 3 == 0) for k in range(12)])
    d = ot.quotient_distance(us, vs, H)
    assert np.isfinite(d).all()
    for _ in range(3):
        h = ot.group_exp(np.einsum("k,kij->ij", rng.normal(size=3) * 2.0, np.array(ideal)))
        assert np.abs(ot.quotient_distance(h @ us, vs, H) - d).max() <= 1e-12
        assert np.abs(ot.quotient_distance(us, h @ vs, H) - d).max() <= 1e-12
    single = [ot.quotient_distance(u, v, H) for u, v in zip(us, vs)]
    assert all(type(x) is float for x in single)
    assert np.array_equal(d, single)
    assert np.array_equal(ot.quotient_distance(us[0], vs, H), [ot.quotient_distance(us[0], v, H)
                                                               for v in vs])
    assert ot.quotient_distance(us[1], vs[0], H) == math.inf


@pytest.mark.parametrize("chirality", [0, 1])
def test_quotient_diameters_are_attained(rng, chirality):
    H, _ = su2_estimate(rng, chirality)
    other = ot.su2_bases()[1 - chirality]
    assert ot.quotient_distance(np.eye(4), ot.group_exp(math.pi * other[0]), H) == \
        pytest.approx(math.pi, abs=1e-12)
    minus_I = ot.SubgroupEstimate("finite-cyclic(2)", 4, 0, [], [-np.eye(4)], {}, order=2)
    assert ot.quotient_distance(np.eye(4), np.diag([-1.0, -1.0, 1.0, 1.0]), minus_I) == \
        pytest.approx(math.sqrt(2.0) * math.pi, abs=1e-12)


def test_finite_cyclic_quotient_stacks_bitwise(rng):
    H = ot.classify_subgroup([ot.rotation2(2 * math.pi / 5)])
    assert H.label == "finite-cyclic(5)"
    us = np.array([random_orthogonal(rng, 2, reflect=k % 2 == 1) for k in range(6)])
    vs = np.array([random_orthogonal(rng, 2) for _ in range(4)])
    d = ot.quotient_distance(us[:, None], vs[None], H)
    assert d.shape == (6, 4)
    assert np.array_equal(d, [[reference_quotient_distance(u, v, H) for v in vs] for u in us])


def test_other_class_has_no_quotient_distance():
    H = ot.SubgroupEstimate("other", 3, 2, ot.skew_basis(3)[:2], [], {})
    with pytest.raises(ValueError, match="no exact quotient distance for the class 'other'"):
        ot.quotient_distance(np.eye(3), np.eye(3), H)


def test_quotient_monotone_below_group_distance(rng):
    H = so2_estimate()
    for _ in range(5):
        u = random_orthogonal(rng, 2)
        v = random_orthogonal(rng, 2)
        q = ot.quotient_distance(u, v, H)
        assert q <= ot.group_distance(u, v) + 1e-12


def test_classify_measures_each_sample_against_identity_once(monkeypatch):
    calls = []
    group_distance = ot.group_distance

    def counting(u, v):
        calls.append(1)
        return group_distance(u, v)

    monkeypatch.setattr(ot, "group_distance", counting)
    circle = [ot.rotation2(0.1 * k) for k in range(1, 6)]
    assert ot.classify_subgroup(circle).label == "SO(2)-circle"
    # one stacked call for every sample
    assert len(calls) == 1
    calls.clear()
    quarter = np.array([ot.rotation2(0.5 * math.pi * k) for k in range(1, 4)])
    assert ot.classify_subgroup(quarter).label == "finite-cyclic(4)"
    # one stacked call for every sample, one for the order search at the
    # fourth power, and one per sample against the stacked powers
    assert len(calls) == 1 + 1 + 3


def test_skew_index_is_built_once_per_n_and_read_only():
    for n in (2, 3, 4):
        lam, mu = ot.skew_index(n)
        assert list(zip(lam.tolist(), mu.tolist())) == ot.skew_pairs(n)
        assert ot.skew_index(n) is ot.skew_index(n)
        with pytest.raises(ValueError):
            lam[0] = 1
