import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import curvature as cv
from framelab import holonomy as hl
from framelab import metric as mt
from framelab import ortho as ot


def wrap_angle(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def holonomy_angle(h):
    return math.atan2(h[1, 0], h[0, 0])


def test_flat_loop_identity(flat2):
    loop = hl.plaquette_loop([0.3, 0.4], 0, 1, 0.25)
    h = hl.holonomy_element(flat2, loop)
    assert np.abs(h - np.eye(2)).max() <= 1e-12


def test_torus_contractible_rectangles_trivial(torus2):
    loops = [hl.plaquette_loop([1.0, 2.0], 0, 1, d) for d in (0.3, 0.7)]
    samples = hl.holonomy_samples(torus2, loops, torus2, word_length=2)
    assert len(samples) == 1
    assert samples[0].descriptor == "constant"


def test_sphere_latitude_closed_form(sphere):
    # rotation angle 2 pi (1 - cos th0) for the +phi latitude loop
    for th0 in (0.7, 1.1, 2.0):
        loop = hl.coordinate_circle_loop([th0, 0.0], 1, 2 * math.pi, orientation=1)
        h = hl.holonomy_element(sphere, loop)
        want = 2 * math.pi * (1 - math.cos(th0))
        assert abs(wrap_angle(holonomy_angle(h) - want)) <= 1e-6


def test_cone_circle_closed_form():
    # rotation angle = 2 pi a (mod 2 pi) outside the cap
    for a in (0.7, math.sqrt(2) - 1):
        cone = mt.smoothed_cone(a, 0.1)
        loop = hl.coordinate_circle_loop([1.0, 0.3], 1, 2 * math.pi, orientation=-1)
        h = hl.holonomy_element(cone, loop)
        assert abs(wrap_angle(holonomy_angle(h) - 2 * math.pi * a)) <= 1e-6


def test_cone_transport_through_cap():
    # inside the cap the rotation is strictly smaller than the full angle
    a = 0.6
    cone = mt.smoothed_cone(a, 0.1)
    loop = hl.coordinate_circle_loop([0.1, 0.0], 1, 2 * math.pi, orientation=-1)
    h = hl.holonomy_element(cone, loop)
    ang = abs(wrap_angle(holonomy_angle(h)))
    assert 0 < ang < 2 * math.pi * a


def test_transport_isometry_drift(sphere, rng):
    S = hl.section_frame(sphere, np.array([1.0, 0.2]))
    seg = hl.line_segment([1.0, 0.2], [1.6, 1.4])
    P = hl.transport_matrix(sphere, [seg], S)
    G_end = sphere.evaluate([1.6, 1.4])
    assert np.abs(P.T @ G_end @ P - np.eye(2)).max() <= 1e-8


def test_loop_reversal_and_concatenation(sphere):
    l1 = hl.plaquette_loop([1.0, 0.5], 0, 1, 0.4)
    l2 = hl.polyline_loop([[1.0, 0.5], [1.3, 0.6], [1.1, 1.0], [1.0, 0.5]])
    h1 = hl.holonomy_element(sphere, l1)
    h2 = hl.holonomy_element(sphere, l2)
    # l1's corners in reverse order
    rev = hl.polyline_loop([[1.0, 0.5], [1.0, 0.9], [1.4, 0.9], [1.4, 0.5], [1.0, 0.5]])
    hrev = hl.holonomy_element(sphere, rev)
    assert np.abs(hrev - h1.T).max() <= 1e-8
    cat = hl.LoopSpec(l1.basepoint, l1.segments + l2.segments, None, "cat")
    hcat = hl.holonomy_element(sphere, cat)
    assert np.abs(hcat - h2 @ h1).max() <= 1e-7


def test_loop_closure_validation():
    with pytest.raises(ValueError):
        hl.polyline_loop([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])  # open path
    # closure up to a declared period shift is fine
    loop = hl.coordinate_circle_loop([1.0, 0.0], 1, 2 * math.pi)
    assert loop.closure_shift[1] == pytest.approx(2 * math.pi)


def test_shift_invariance_guard(sphere):
    # a shift along theta is not a metric invariance of the sphere chart
    seg = hl.angular_segment([1.0, 0.0], 0, 1.0, 1.7)
    loop = hl.LoopSpec([1.0, 0.0], [seg], np.array([0.7, 0.0]), "bad")
    with pytest.raises(ValueError):
        hl.holonomy_element(sphere, loop)


def test_holonomy_samples_dedup_and_lengths():
    a = 0.7
    cone = mt.smoothed_cone(a, 0.1)
    base = [1.0, 0.0]
    loops = [hl.coordinate_circle_loop(base, 1, 2 * math.pi, orientation=-1)]
    samples = hl.holonomy_samples(cone, loops, cone, word_length=3)
    # powers come with additive lengths
    L1 = min(s.loop_length for s in samples if s.loop_length > 0)
    assert L1 == pytest.approx(2 * math.pi * a, rel=1e-9)
    lengths = sorted({round(s.loop_length / L1) for s in samples})
    assert lengths == [0, 1, 2, 3]
    # every element is a power of the generator
    gen = ot.rotation2(2 * math.pi * a)
    for s in samples:
        k = round(s.loop_length / L1)
        d = min(ot.group_distance(s.element, np.linalg.matrix_power(gen, k)),
                ot.group_distance(s.element, np.linalg.matrix_power(gen, -k)))
        assert d <= 1e-7


def test_circle_power_samples_match_matrix_powers():
    a = math.sqrt(2) - 1
    cone = mt.smoothed_cone(a, 0.05)
    samples = hl.circle_power_samples(cone, [0.4, 0.0], axis=1, period=2 * math.pi,
                                      max_power=10)
    base = [s for s in samples if 0 < s.loop_length][0]
    k = 7
    target = [s for s in samples if abs(s.loop_length - 7 * base.loop_length) < 1e-9]
    assert target


def test_fiber_distance_flat_torus_is_group_distance(torus2):
    samples = [hl.HolonomySample(np.eye(2), 0.0, "constant")]
    e = ot.rotation2(0.2)
    e2 = ot.rotation2(1.9)
    assert hl.fiber_distance(samples, e, e2) == pytest.approx(
        ot.group_distance(e, e2))


def test_fiber_distance_upper_bounded_by_group_distance():
    a = 0.7
    cone = mt.smoothed_cone(a, 0.1)
    samples = hl.circle_power_samples(cone, [0.25, 0.0], axis=1,
                                      period=2 * math.pi, max_power=30)
    for th in np.linspace(0, 2 * math.pi, 9):
        d = hl.fiber_distance(samples, np.eye(2), ot.rotation2(th))
        assert d <= ot.group_distance(np.eye(2), ot.rotation2(th)) + 1e-12


def test_fiber_distance_reflection_component_infinite():
    cone = mt.smoothed_cone(0.7, 0.1)
    samples = hl.circle_power_samples(cone, [0.25, 0.0], axis=1,
                                      period=2 * math.pi, max_power=20)
    refl = np.diag([1.0, -1.0])
    assert hl.fiber_distance(samples, np.eye(2), refl) == math.inf


def test_fiber_distance_pseudo_metric_axioms(rng):
    cone = mt.smoothed_cone(math.sqrt(2) - 1, 0.05)
    samples = hl.circle_power_samples(cone, [0.15, 0.0], axis=1,
                                      period=2 * math.pi, max_power=25)
    frames = [ot.rotation2(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
    for e in frames:
        assert hl.fiber_distance(samples, e, e) == 0.0
    for e in frames:
        for f in frames:
            d1 = hl.fiber_distance(samples, e, f)
            d2 = hl.fiber_distance(samples, f, e)
            assert d1 == pytest.approx(d2, abs=1e-8)
    for e in frames:
        for f in frames:
            for g in frames:
                assert (hl.fiber_distance(samples, e, g)
                        <= hl.fiber_distance(samples, e, f)
                        + hl.fiber_distance(samples, f, g) + 1e-8)


def test_estimate_h0_flat_rescaling_trivial(flat2):
    members = []
    for lam in (1.0, 4.0, 16.0):
        m = mt.rescaled(flat2, 1.0 / lam)
        loops = hl.plaquette_loops(np.array([0.2, 0.1]), 0.2, 2)
        members.append(hl.H0FamilyMember(lam, hl.holonomy_samples(m, loops, m, word_length=2)))
    report = hl.estimate_H0(members)
    assert report.estimate.label == "trivial"
    assert report.stabilized


def test_estimate_h0_cone_so2():
    a = math.sqrt(2) - 1
    members = []
    for eps in (0.1, 0.03, 0.01):
        m = mt.smoothed_cone(a, eps)
        bp = np.array([2.05 * eps, 0.0])   # just outside the cap joint
        samples = hl.circle_power_samples(m, bp, axis=1, period=2 * math.pi,
                                          max_power=40)
        members.append(hl.H0FamilyMember(0.1 / eps, samples))
    report = hl.estimate_H0(members)
    assert [row[1] for row in report.per_scale] == ["SO(2)-circle"] * 3
    assert report.estimate.label == "SO(2)-circle"
    assert report.stabilized


def test_estimate_h0_eguchi_hanson_su2(eh):
    bp = np.array([2.2, 1.3, 0.8, 1.1])
    members = []
    for lam in (4.0, 16.0, 64.0):
        m = mt.rescaled(eh, 1.0 / lam)
        loops = hl.plaquette_loops(bp, 0.25, 4)
        members.append(hl.H0FamilyMember(lam, hl.holonomy_samples(m, loops, m, word_length=2)))
    report = hl.estimate_H0(members)
    assert report.estimate.label == "SU(2)-in-SO(4)"
    assert report.stabilized


def test_reused_loops_are_measured_under_each_length_metric(eh):
    """A loop measured under one length metric and reused under another
    takes the second metric's length."""
    bp = [2.2, 1.3, 0.8, 1.1]
    loops = hl.plaquette_loops(bp, 0.2, 4)
    twice = mt.rescaled(eh, 2.0)
    first = hl.holonomy_samples(eh, loops, eh)
    reused = hl.holonomy_samples(eh, loops, twice)
    fresh = hl.holonomy_samples(eh, hl.plaquette_loops(bp, 0.2, 4), twice)
    assert [s.loop_length for s in reused] == [s.loop_length for s in fresh]
    assert max(s.loop_length for s in reused) == pytest.approx(
        2.0 * max(s.loop_length for s in first), rel=1e-12)


def test_lemma_3_4_consistency():
    """Wherever the sampled fiber distance nearly vanishes, the estimated
    infinitesimal-holonomy group contains an element moving e to e'."""
    a = math.sqrt(2) - 1
    eps = 0.01
    m = mt.smoothed_cone(a, eps)
    bp = np.array([2.5 * eps, 0.0])
    samples = hl.circle_power_samples(m, bp, axis=1, period=2 * math.pi,
                                      max_power=60)
    est = ot.classify_subgroup([s.element for s in samples])
    assert est.label == "SO(2)-circle"
    e = np.eye(2)
    for th in np.linspace(0.1, 2 * math.pi - 0.1, 7):
        e2 = ot.rotation2(th)
        if hl.fiber_distance(samples, e, e2) < 1e-3:
            # H0 estimate contains a with d_b(a e, e') small; SO(2) acts
            # transitively, so the quotient distance must vanish
            assert ot.quotient_distance(e, e2, est) <= 1e-2


def test_samples_jsonl_round_trip():
    cone = mt.smoothed_cone(0.7, 0.1)
    samples = hl.circle_power_samples(cone, [0.5, 0.0], axis=1,
                                      period=2 * math.pi, max_power=3)
    text = hl.samples_to_jsonl(samples)
    back = hl.samples_from_jsonl(text, 2)
    assert len(back) == len(samples)
    for s, b in zip(samples, back):
        assert np.abs(s.element - b.element).max() == 0.0
        assert s.loop_length == b.loop_length


# ---------------------------------------------------------------------------
# the Frobenius-prefiltered searches against their quadratic references

def reference_dedup(samples, tol=1e-6):
    kept = []
    for s in sorted(samples, key=lambda s: s.loop_length):
        if any(ot.group_distance(s.element, k.element) < tol for k in kept):
            continue
        kept.append(s)
    return kept


def reference_fiber_distance(samples, e, e_prime):
    # np.hypot, as the stacked search uses: math.hypot differs from it in
    # the last bit on a fraction of a percent of arguments
    best = ot.group_distance(e, e_prime)
    for s in samples:
        d = ot.group_distance(s.element @ e, e_prime)
        if math.isfinite(d):
            best = min(best, float(np.hypot(s.loop_length, d)))
    return best


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def nudge(rng, A, dist):
    """A exp(a) with |a|_b = dist, so d_b(A, A exp(a)) = dist."""
    n = A.shape[0]
    a = ot.unvec_skew(rng.normal(size=n * (n - 1) // 2), n)
    return A @ ot.group_exp(a * (dist / ot.b_norm(a)))


def cloud(rng, n, size, near_exponents, ties):
    """Random elements of both components of O(n), then near-duplicates of
    earlier ones at d_b = 10**exponent; lengths repeat when `ties`."""
    def length():
        return 0.5 * int(rng.integers(4)) if ties else float(rng.uniform(0, 2))

    out = [hl.HolonomySample(random_orthogonal(rng, n), length(), f"r{k}")
           for k in range(size)]
    for k, x in enumerate(near_exponents):
        src = out[int(rng.integers(len(out)))]
        out.append(hl.HolonomySample(nudge(rng, src.element, 10.0 ** x), length(),
                                     f"near{k}"))
    rng.shuffle(out)
    return out


# near-duplicates anywhere within a decade of the dedup tolerance 1e-6, and
# ones that straddle it at d_b = 10^(-6 +- 0.02)
CLOUDS = dict(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
              size=st.integers(1, 12), ties=st.booleans(),
              near_exponents=st.lists(st.one_of(st.floats(-7.0, -5.0), st.floats(-6.02, -5.98)),
                                      max_size=16))


@settings(max_examples=60, deadline=None)
@given(**CLOUDS)
def test_dedup_matches_quadratic_reference(n, seed, size, ties, near_exponents):
    samples = cloud(np.random.default_rng(seed), n, size, near_exponents, ties)
    got = hl._dedup(samples)
    assert [id(s) for s in got] == [id(s) for s in reference_dedup(samples)]


@settings(max_examples=40, deadline=None)
@given(entries=st.sampled_from([1, 5, 40, 200]), **CLOUDS)
def test_dedup_over_several_screen_blocks(n, seed, size, ties, near_exponents, entries):
    """Screen blocks of one row or a few, and distance calls of a pair or a
    few, keep the reference's samples."""
    samples = cloud(np.random.default_rng(seed), n, size, near_exponents, ties)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hl, "SCREEN_ENTRIES", entries)
        got = hl._dedup(samples)
    assert [id(s) for s in got] == [id(s) for s in reference_dedup(samples)]


def test_a_cluster_is_deduplicated_without_stacking_every_pair(monkeypatch):
    """600 samples within 1e-9 of I have 179,700 pairs within reach; each
    screen block ends a distance call, and later blocks meet only the kept
    samples, so no call stacks more than one block's pairs."""
    rng = np.random.default_rng(5)
    samples = [hl.HolonomySample(nudge(rng, np.eye(3), 1e-9), float(k), f"c{k}")
               for k in range(600)]
    samples += [hl.HolonomySample(random_orthogonal(rng, 3), 0.5, f"r{k}") for k in range(5)]
    sizes = []
    distance = ot.group_distance
    monkeypatch.setattr(ot, "group_distance", lambda u, v: sizes.append(len(u)) or distance(u, v))
    got = hl._dedup(samples)
    monkeypatch.setattr(ot, "group_distance", distance)
    assert [id(s) for s in got] == [id(s) for s in reference_dedup(samples)]
    rows = math.isqrt(hl.SCREEN_ENTRIES // 9)
    assert max(sizes) <= rows * (rows + 5)
    assert sum(sizes) <= 605 * (rows + 5)


def reference_closure(conn, loops, g, word_length, dedup):
    """Word closure as `holonomy_samples` defines it, with every round's
    frontier deduplicated, the last one's too."""
    base = [hl.HolonomySample(np.eye(conn.dim), 0.0, "constant")]
    for loop in loops:
        h, length = hl.holonomy_element(conn, loop), loop.compute_length(g)
        base += [hl.HolonomySample(h, length, loop.descriptor),
                 hl.HolonomySample(h.T, length, loop.descriptor + "^-1")]
    words, frontier = list(base), list(base)
    for _ in range(1, word_length):
        nxt = [hl.HolonomySample(s.element @ w.element, w.loop_length + s.loop_length,
                                 f"{w.descriptor}*{s.descriptor}")
               for w in frontier for s in base[1:]]
        words = dedup(words + nxt)
        frontier = dedup(nxt)
    return words


@pytest.mark.parametrize("case", ["cone-cap", "eh"])
def test_word_closure_matches_a_closure_that_dedups_every_frontier(case, eh):
    if case == "cone-cap":
        # inside the cap r < 0.2, so every loop has a nontrivial holonomy
        m, bp, dedup = mt.smoothed_cone(0.7, 0.1), np.array([0.15, 0.5]), reference_dedup
        loops = [hl.coordinate_circle_loop(bp, 1, 2 * math.pi, orientation=-1),
                 hl.plaquette_loop(bp, 0, 1, 0.04),
                 *hl.coordinate_triangle_loops(bp, 0.04, 1, np.random.default_rng(0), 2)]
    else:
        m, bp, dedup = eh, np.array([2.2, 1.3, 0.8, 1.1]), hl._dedup
        loops = hl.plaquette_loops(bp, 0.25, 4)
    got = hl.holonomy_samples(m, loops, m, word_length=3)
    want = reference_closure(m, loops, m, 3, dedup)
    assert len(got) > 2 * len(loops) + 1

    def key(s):
        return s.descriptor, s.loop_length, s.element.tobytes()

    assert [key(s) for s in got] == [key(s) for s in want]


@settings(max_examples=60, deadline=None)
@given(hit=st.booleans(), flip=st.booleans(), **CLOUDS)
def test_fiber_distance_matches_brute_force(n, seed, size, ties, near_exponents,
                                            hit, flip):
    rng = np.random.default_rng(seed)
    samples = cloud(rng, n, size, near_exponents, ties)
    e = random_orthogonal(rng, n)
    # e' near a moved frame a e, or anywhere, in either component of e
    src = samples[int(rng.integers(len(samples)))].element @ e if hit else e
    e_prime = nudge(rng, src, float(rng.uniform(0, 0.5)))
    if flip:
        e_prime = e_prime @ np.diag([-1.0] + [1.0] * (n - 1))
    got = hl.fiber_distance(samples, e, e_prime)
    assert got == reference_fiber_distance(samples, e, e_prime)


@settings(max_examples=40, deadline=None)
@given(targets=st.integers(1, 6), **CLOUDS)
def test_stacked_fiber_distance_rows_are_single_calls(n, seed, size, ties, near_exponents,
                                                      targets):
    rng = np.random.default_rng(seed)
    samples = cloud(rng, n, size, near_exponents, ties)
    e = random_orthogonal(rng, n)
    # targets near moved frames, in both components
    E = np.array([nudge(rng, samples[int(rng.integers(len(samples)))].element @ e,
                        float(rng.uniform(0, 0.5))) for _ in range(targets)])
    E[::2] = E[::2] @ np.diag([-1.0] + [1.0] * (n - 1))
    got = hl.fiber_distance(samples, e, E)
    assert got.shape == (targets,)
    assert got.tolist() == [hl.fiber_distance(samples, e, t) for t in E]


def count_calls(monkeypatch, counts, module, name):
    """Count the calls of module.name in counts[name]."""
    inner = getattr(module, name)

    def wrapper(*args):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_fiber_dist_command_makes_one_stacked_search(tmp_path, monkeypatch):
    """The distance calls of one `fiber-dist` run do not grow with its
    --samples rotations: they all go to one fiber_distance call."""
    from framelab.cli import main

    counts = {}
    count_calls(monkeypatch, counts, ot, "group_distance")
    count_calls(monkeypatch, counts, hl, "fiber_distance")
    seen = []
    for rotations in ("4", "64"):
        counts.clear()
        code = main(["fiber-dist", "--metric", "builtin:smoothed-cone:a=0.41421356,eps=0.05",
                     "--at", "0.15,0.0", "--loops", "10", "--samples", rotations,
                     "--out", str(tmp_path / rotations)])
        assert code == 0
        assert counts["fiber_distance"] == 1
        seen.append(counts["group_distance"])
    assert seen[0] == seen[1]


def test_holonomy_command_makes_one_stacked_distance_call_per_dedup(tmp_path, monkeypatch):
    """The distance calls of one `holonomy` run do not grow with its --loops:
    each dedup takes every exact d_b it needs in one stacked call, and at
    word length 2 only the words are deduplicated, not the last frontier."""
    from framelab.cli import main

    counts = {}
    count_calls(monkeypatch, counts, ot, "group_distance")
    count_calls(monkeypatch, counts, hl, "_dedup")
    seen = []
    for loops in ("0", "3"):
        counts.clear()
        code = main(["holonomy", "--metric", "builtin:eguchi-hanson", "--at", "2.2,1.3,0.8,1.1",
                     "--loops", loops, "--word-length", "2", "--out", str(tmp_path / loops)])
        assert code == 0
        assert counts["_dedup"] == 1
        seen.append(counts["group_distance"])
    assert seen[0] == seen[1]


def test_dedup_validates_every_sample():
    bad = hl.HolonomySample(2.0 * np.eye(2), 1.0, "not orthogonal")
    with pytest.raises(ot.NotOrthogonalError):
        hl._dedup([bad])


def test_fiber_distance_validates_pruned_samples():
    # the second sample cannot lower the minimum but is still checked
    good = hl.HolonomySample(np.eye(2), 0.0, "constant")
    bad = hl.HolonomySample(2.0 * np.eye(2), 50.0, "not orthogonal")
    with pytest.raises(ot.NotOrthogonalError):
        hl.fiber_distance([good, bad], np.eye(2), ot.rotation2(0.1))


def test_holonomy_samples_rejects_empty_words():
    with pytest.raises(ValueError):
        hl.holonomy_samples(mt.flat_euclidean(2), [], word_length=0)


# ---------------------------------------------------------------------------
# Magnus transport in the section gauge

def reference_holonomy(m, loop):
    """S^-1 E(1) for E(0) = S at the basepoint, E' = -Gamma[c'] E integrated
    by scipy's DOP853 at rtol 1e-13, one segment at a time."""
    from scipy.integrate import solve_ivp

    n = m.dim
    S = hl.section_frame(m, loop.basepoint)
    E = S.copy()
    for seg in loop.segments:
        def rhs(t, y, seg=seg):
            gamma = cv.christoffel(m, m.wrap_point(seg.point(t))).gamma
            return (-np.einsum("kil,i->kl", gamma, seg.velocity(t)) @ y.reshape(n, n)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), E.ravel(), method="DOP853", rtol=1e-13, atol=1e-14)
        E = sol.y[:, -1].reshape(n, n)
    return np.linalg.solve(S, E)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_connection_form_contracts_the_connection_coefficients(n, seed):
    # a stack of three SPD matrices with symmetric partials, and velocities
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(3, n, n))
    G = B @ np.swapaxes(B, -1, -2) + n * np.eye(n)
    dG = rng.normal(size=(3, n, n, n))
    dG = dG + np.swapaxes(dG, -1, -2)
    V = rng.normal(size=(3, n))
    om = hl.section_connection_form(G, dG, V)
    want = np.einsum("ki,kiab->kab", V, hl.section_connection_coeffs(G, dG))
    assert np.abs(om - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
    assert np.abs(om + np.swapaxes(om, -1, -2)).max() <= 1e-13 * (1.0 + np.abs(om).max())
    one = hl.section_connection_form(G[0], dG[0], V[0])
    assert one.shape == (n, n)
    assert np.abs(one - om[0]).max() <= 1e-13 * (1.0 + np.abs(om[0]).max())


@pytest.mark.parametrize("case", ["sphere", "cone-cap", "eh"])
def test_magnus_transport_matches_a_tight_reference(case, eh, sphere):
    if case == "sphere":
        m = sphere
        loop = hl.polyline_loop([[1.0, 0.5], [1.3, 0.6], [1.1, 1.0], [1.0, 0.5]])
    elif case == "cone-cap":
        # r = 0.1 lies in the cap r < 0.2, where the profile is the quintic
        m = mt.smoothed_cone(0.6, 0.1)
        loop = hl.coordinate_circle_loop([0.1, 0.0], 1, 2 * math.pi, orientation=-1)
    else:
        m = eh
        loop = hl.plaquette_loop([1.6, 0.85, 0.5, 0.5], 0, 1, 0.25)
    h = hl.holonomy_element(m, loop)
    assert np.abs(h - reference_holonomy(m, loop)).max() <= 1e-10
    assert np.abs(h.T @ h - np.eye(m.dim)).max() <= 1e-14


def test_cone_circle_outside_the_cap_is_exact():
    # the connection form is constant along the circle, so every Magnus
    # step is exact and only rounding is left
    for a in (0.7, math.sqrt(2) - 1):
        cone = mt.smoothed_cone(a, 0.1)
        loop = hl.coordinate_circle_loop([1.0, 0.3], 1, 2 * math.pi, orientation=-1)
        h = hl.holonomy_element(cone, loop)
        assert abs(wrap_angle(holonomy_angle(h) - 2 * math.pi * a)) <= 1e-12


def simpson_lattice(N):
    """The first transport round's nodes on a segment, j/(4N) for j = 0..4N."""
    return np.arange(4 * N + 1) / (4 * N)


@pytest.mark.parametrize("case", ["outside the domain", "no Cholesky factor"])
def test_transport_leaving_the_chart_stops_at_the_first_node_outside(case, sphere):
    # x = 0.3 - 0.6 s crosses 0 at s = 1/2, a node of the lattice.  The
    # sphere's G is still positive definite at th < 0, so only the domain
    # check stops it, and x = 0 lies within DOMAIN_TOL of the chart: the
    # first node outside is 17/32.  The unbounded chart of diag(1, y) loses
    # positive definiteness at y = 0 itself, so there it is the node s = 1/2
    if case == "outside the domain":
        m, axis = sphere, 0
        seg = hl.line_segment([0.3, 1.0], [-0.3, 1.0])
    else:
        m, axis = mt.parse_metric("dim 2; coords x y; g = [[1, 0], [0, y]];"), 1
        seg = hl.line_segment([1.0, 0.3], [1.0, -0.3])
    with pytest.raises(cv.DomainExitError) as err:
        hl.gauge_transport(m, [seg])
    nodes = simpson_lattice(hl.TRANSPORT_STEPS)
    limit = -cv.DOMAIN_TOL if case == "outside the domain" else 0.0
    outside = nodes[seg.point(nodes)[:, axis] <= limit]
    assert err.value.s_exit == outside.min()
    assert err.value.s_exit == (17 / 32 if case == "outside the domain" else 0.5)
    assert np.array_equal(err.value.point, seg.point(outside.min()))


def test_a_corner_within_the_domain_tolerance_still_transports():
    # segment ends are transport nodes: corners at x = 0 and just below it,
    # within DOMAIN_TOL, lie inside the chart x in [0, 2], where the metric
    # is still regular, so the loop transports as it does on the unbounded
    # chart of the same metric, which the reference integrates
    g = "g = [[1 + x^2 + y^2, 0.1*x*y], [0.1*x*y, 1 + x + y^2]];"
    m = mt.parse_metric("dim 2; coords x y; domain x in [0, 2];" + g)
    loop = hl.polyline_loop([[0.5, 0.5], [-0.5 * cv.DOMAIN_TOL, 0.9], [0.0, 0.2], [0.5, 0.5]])
    h = hl.holonomy_element(m, loop)
    reference = reference_holonomy(mt.parse_metric("dim 2; coords x y;" + g), loop)
    assert np.abs(h - reference).max() <= 1e-10
    assert not np.allclose(h, np.eye(2), atol=1e-3)


def test_transport_step_cap_is_a_domain_error(eh, monkeypatch):
    # nothing converges at tolerance 0, so doubling runs into the cap
    monkeypatch.setattr(hl, "TRANSPORT_TOL", 0.0)
    monkeypatch.setattr(hl, "TRANSPORT_MAX_STEPS", 64)
    loop = hl.plaquette_loop([2.2, 1.3, 0.8, 1.1], 0, 1, 0.25)
    with pytest.raises(cv.DomainExitError) as err:
        hl.holonomy_element(eh, loop)
    assert 0.0 < err.value.s_exit < 1.0


def test_one_stacked_derivative_call_per_loop_and_round(monkeypatch):
    """Every node of the first round's lattice, on every segment of a loop,
    is evaluated in one stacked derivative_fn(1) call; each doubling round
    adds one more call holding only the new midpoints of its open
    segments, so no node of a segment is evaluated twice."""
    m = mt.eguchi_hanson()
    calls, nodes = [], []
    dfn = m.derivative_fn(1)

    def counted(order):
        assert order == 1

        def evaluate(X):
            calls.append(np.shape(X))
            return dfn(X)
        return evaluate

    connection_at = hl._connection_at

    def recorded(conn, segments, s):
        nodes.append((list(segments), np.array(s)))
        return connection_at(conn, segments, s)

    monkeypatch.setattr(hl, "_connection_at", recorded)
    monkeypatch.setattr(m, "derivative_fn", counted)
    # near the bolt the r-sides need more than the first round
    loop = hl.plaquette_loop([1.6, 0.85, 0.5, 0.5], 0, 1, 0.25)
    hl.holonomy_element(m, loop)
    N = hl.TRANSPORT_STEPS
    assert len(calls) >= 2
    assert len(calls) == len(nodes)
    assert calls[0] == (4 * (4 * N + 1), 4)
    assert nodes[0][0] == loop.segments
    assert nodes[0][1].tolist() == simpson_lattice(N).tolist()
    seen = {(id(seg), s) for seg in loop.segments for s in nodes[0][1].tolist()}
    for r, ((segments, s), shape) in enumerate(zip(nodes[1:], calls[1:]), 1):
        N *= 2
        # the 2N new midpoints of each open segment, and nothing else
        assert shape == (2 * N * len(segments), 4)
        assert s.tolist() == (np.arange(1, 4 * N, 2) / (4 * N)).tolist()
        assert all(any(seg is old for old in nodes[r - 1][0]) for seg in segments)
        new = {(id(seg), t) for seg in segments for t in s.tolist()}
        assert not new & seen
        seen |= new


#: doubling rounds of each segment (one digit per side, in loop order) of
#: the six EH plaquettes (delta 0.25, lexicographic planes) at basepoints
#: drawn like the holonomy-closure benchmark's, as the transport on two
#: Gauss-Legendre nodes per Magnus step, evaluated afresh in every round,
#: took them
GAUSS_ROUNDS = {
    (2.51, 1.2, 1.14, 1.3): "2111 2121 2121 1111 1111 1111",
    (2.75, 1.74, 0.88, 2.27): "1111 1111 1111 1111 1111 1111",
    (1.75, 1.38, 1.7, 0.6): "3222 3131 3131 2121 2121 1111",
    (1.79, 1.49, 1.49, 1.56): "2222 2121 2121 2121 2121 1111",
    (2.35, 2.21, 1.85, 0.73): "2121 2121 2121 1111 1111 1111",
    (2.95, 0.94, 1.28, 1.98): "1111 1111 1111 1111 1111 1111",
    (2.14, 1.11, 0.55, 1.16): "2122 2121 2121 2121 2121 1111",
    (2.54, 2.11, 2.3, 1.62): "2121 2121 2121 1111 1111 1111",
    (2.05, 1.91, 2.08, 2.48): "2122 2121 2121 2121 2121 1111",
}


def test_nested_nodes_need_at_most_one_more_round_than_gauss_nodes(eh, monkeypatch):
    rounds = {}
    connection_at = hl._connection_at

    def recorded(conn, segments, s):
        for seg in segments:
            rounds[id(seg)] = rounds.get(id(seg), 0) + 1
        return connection_at(conn, segments, s)

    monkeypatch.setattr(hl, "_connection_at", recorded)
    extra = []
    for p, gauss in GAUSS_ROUNDS.items():
        for loop, sides in zip(hl.plaquette_loops(p, 0.25, 4), gauss.split()):
            rounds.clear()
            hl.holonomy_element(eh, loop)
            extra += [rounds[id(seg)] - int(r) for seg, r in zip(loop.segments, sides)]
    assert len(extra) == 9 * 24
    assert max(extra) <= 1
