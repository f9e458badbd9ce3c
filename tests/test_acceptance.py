"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers and asserting the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from framelab import bundle as bd
from framelab import curvature as cv
from framelab import expr as ex
from framelab import ghlab as gh
from framelab import holonomy as hl
from framelab import metric as mt
from framelab import oneill as on
from framelab import ortho as ot
from framelab.cli import canonical_recovery_report


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def done(self):
        return time.perf_counter() - self.t0


def report(num, name, ok, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{budget.done():.1f}s] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_acceptance_01_canonical_metric_recovery():
    budget = Budget(10.0)
    rep = canonical_recovery_report(samples=50, seed=11)
    ok = rep["max_rel_err"] <= 1e-9 and budget.done() < budget.limit
    report(1, "canonical-metric recovery", ok, budget,
           f"max rel err {rep['max_rel_err']:.3e} over 50 frame points")


def test_acceptance_02_oneill_cross_validation():
    budget = Budget(120.0)
    rng = np.random.default_rng(2024)
    spaces = {
        "flat": (mt.flat_euclidean(2), [[0.1, 0.2], [0.6, -0.4]]),
        "torus": (mt.flat_torus(2), [[1.0, 2.0], [4.0, 1.5]]),
        "sphere": (mt.round_sphere(), [[0.7, 0.3], [1.4, 2.2], [2.3, 4.0]]),
    }
    worst_ric = 0.0
    worst_vvvh = 0.0
    worst_lemma = 0.0
    for name, (g, seeds) in spaces.items():
        count = 0
        while count < 30:
            base = seeds[count % len(seeds)]
            jitter = rng.uniform(-0.05, 0.05, size=2)
            p = np.array(base) + jitter
            ctx = on.ONeillContext(g, g, bd.FramePoint.anchor(p, 2))
            v = rng.normal(size=2)
            xi = ot.unvec_skew(rng.normal(size=1), 2)
            dirs = ((v, xi), (v, None), (None, xi))
            for (vv, xx), d in zip(dirs, on.ricci_direct(ctx, *zip(*dirs))):
                f = on.ricci_oneill(ctx, vv, xx).ricci_formula
                worst_ric = max(worst_ric, abs(f - d) / (1 + abs(d)))
                count += 1
            # VVVH block by direct evaluation (one-dimensional fiber)
            val = on.riemann_direct_4(ctx, [(None, xi), (None, -0.7 * xi),
                                            (None, 0.3 * xi), (v, None)])
            worst_vvvh = max(worst_vvvh, abs(val))
            res, _, _ = on.covariant_a_vertical_residual(
                ctx, xi / max(ot.b_norm(xi), 1e-12), v / np.linalg.norm(v))
            worst_lemma = max(worst_lemma, res)
    # one Eguchi-Hanson context: n = 4, a non-abelian fiber and g != g'
    t0 = time.perf_counter()
    ctx = on.ONeillContext(mt.eguchi_hanson(1.0), mt.eguchi_hanson(1.2),
                           bd.FramePoint.anchor([1.8, 1.2, 0.7, 1.0], 4))
    v = rng.normal(size=4)
    xi = ot.unvec_skew(rng.normal(size=6), 4)
    worst_eh = 0.0
    dirs = ((v, xi), (v, None), (None, xi))
    for (vv, xx), d in zip(dirs, on.ricci_direct(ctx, *zip(*dirs))):
        f = on.ricci_oneill(ctx, vv, xx).ricci_formula
        worst_eh = max(worst_eh, abs(f - d) / (1 + abs(d)))
    eh_s = time.perf_counter() - t0
    ok = (worst_ric <= 1e-5 and worst_eh <= 1e-5 and worst_vvvh <= 1e-6
          and worst_lemma <= 1e-6 and budget.done() < budget.limit)
    report(2, "O'Neill formula vs direct", ok, budget,
           f"ricci rel {worst_ric:.3e}, Eguchi-Hanson ricci rel {worst_eh:.3e} "
           f"in {eh_s:.2f}s, VVVH {worst_vvvh:.3e}, Lemma 4.3(3) {worst_lemma:.3e}")


def test_acceptance_03_fiber_total_geodesy():
    budget = Budget(30.0)
    sphere = mt.round_sphere()
    pair = (mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.30))
    worst = 0.0
    for g, gp, p in ((sphere, sphere, [1.0, 0.5]), (pair[0], pair[1], [0.5, 1.0])):
        chart = bd.LiftedMetricChart(g, gp, bd.FramePoint.anchor(p, 2))
        y0 = chart.chart_point()
        for amp in (0.6, -0.9):
            v0 = chart.lift(y0, a=amp * ot.skew_basis_element(2, 0, 1))
            sol = cv.geodesic_ivp(chart.numeric(), y0, v0, 1.0, rtol=1e-9, atol=1e-9)
            worst = max(worst, float(np.abs(sol.y[:2] - y0[:2, None]).max()))
    ok = worst <= 1e-7 and budget.done() < budget.limit
    report(3, "fibers totally geodesic", ok, budget, f"base drift {worst:.3e}")


def test_acceptance_04_einstein_input():
    budget = Budget(30.0)
    eh = mt.eguchi_hanson(1.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for p in eh.sample_interior(rng, 20, margin=0.1):
        worst = max(worst, float(np.abs(cv.ricci(eh, p)).max()))
    ok = worst <= 1e-8 and budget.done() < budget.limit
    report(4, "Eguchi-Hanson Ricci-flat", ok, budget,
           f"max |Ric| {worst:.3e} over 20 points")


def test_acceptance_05_holonomy_oracles():
    budget = Budget(30.0)
    sphere = mt.round_sphere()

    def wrap(x):
        return (x + math.pi) % (2 * math.pi) - math.pi

    worst_sphere = 0.0
    for th0 in (0.6, 1.1, 1.9):
        loop = hl.coordinate_circle_loop([th0, 0.0], 1, 2 * math.pi, orientation=1)
        h = hl.holonomy_element(sphere, loop)
        ang = math.atan2(h[1, 0], h[0, 0])
        want = 2 * math.pi * (1 - math.cos(th0))
        worst_sphere = max(worst_sphere, abs(wrap(ang - want)))

    worst_cone = 0.0
    for a in (0.7, math.sqrt(2) - 1):
        cone = mt.smoothed_cone(a, 0.1)
        loop = hl.coordinate_circle_loop([1.0, 0.4], 1, 2 * math.pi, orientation=-1)
        h = hl.holonomy_element(cone, loop)
        ang = math.atan2(h[1, 0], h[0, 0])
        worst_cone = max(worst_cone, abs(wrap(ang - 2 * math.pi * a)))

    ok = (worst_sphere <= 1e-6 and worst_cone <= 1e-6
          and budget.done() < budget.limit)
    report(5, "holonomy closed forms", ok, budget,
           f"sphere angle err {worst_sphere:.3e}, cone angle err {worst_cone:.3e}")


def test_acceptance_06_infinitesimal_holonomy_classification():
    budget = Budget(300.0)
    # cone ladder
    a = math.sqrt(2) - 1
    members = []
    for eps in (0.1, 0.03, 0.01):
        m = mt.smoothed_cone(a, eps)
        bp = np.array([2.05 * eps, 0.0])
        samples = hl.circle_power_samples(m, bp, axis=1, period=2 * math.pi,
                                          max_power=40)
        members.append(hl.H0FamilyMember(0.1 / eps, samples))
    cone_rep = hl.estimate_H0(members)

    # rescaled Eguchi-Hanson ladder
    eh = mt.eguchi_hanson(1.0)
    bp = np.array([2.2, 1.3, 0.8, 1.1])
    members = []
    for lam in (4.0, 16.0, 64.0):
        m = mt.rescaled(eh, 1.0 / lam)
        loops = hl.plaquette_loops(bp, 0.25, 4)
        members.append(hl.H0FamilyMember(lam, hl.holonomy_samples(m, loops, m, word_length=2)))
    eh_rep = hl.estimate_H0(members)
    resid = min(eh_rep.estimate.residuals.get("chirality_off_plus", 1.0),
                eh_rep.estimate.residuals.get("chirality_off_minus", 1.0))

    ok = (cone_rep.estimate.label == "SO(2)-circle" and cone_rep.stabilized
          and eh_rep.estimate.label == "SU(2)-in-SO(4)" and eh_rep.stabilized
          and resid <= 1e-5 and budget.done() < budget.limit)
    report(6, "infinitesimal holonomy classification", ok, budget,
           f"cone -> {cone_rep.estimate.label}, EH -> {eh_rep.estimate.label} "
           f"(chirality residual {resid:.3e})")


def test_acceptance_07_fiber_collapse():
    budget = Budget(300.0)
    a = math.sqrt(2) - 1
    rep = gh.fiber_collapse_experiment(a, [0.1, 0.05, 0.02, 0.01], max_power=60)
    Ds = [row["D"] for row in rep.ladder]
    strictly_decreasing = all(b < a_ for a_, b in zip(Ds[:-1], Ds[1:]))
    halved = Ds[-1] <= 0.5 * Ds[0]
    rep3 = gh.fiber_collapse_experiment(1.0 / 3.0, [0.1, 0.05, 0.02, 0.01],
                                        max_power=60)
    target = math.sqrt(2) * math.pi / 3
    z3_ok = abs(rep3.ladder[-1]["D"] - target) <= 1e-2
    ok = (strictly_decreasing and halved and rep.reflection_disconnected
          and z3_ok and budget.done() < budget.limit)
    report(7, "cone fiber collapse", ok, budget,
           f"D ladder {['%.3f' % d for d in Ds]}, final/initial "
           f"{Ds[-1] / Ds[0]:.3f}, Z3 gap {abs(rep3.ladder[-1]['D'] - target):.2e}, "
           f"reflection disconnected {rep.reflection_disconnected}")


def test_acceptance_08_theorem_4_2_boundedness_shadow():
    budget = Budget(300.0)
    # stability of sup |Ric~| under sample doubling at fixed caps
    g = mt.smoothed_cone(0.7, 0.1)
    gp = mt.smoothed_cone(0.7, 0.2)
    grid = np.geomspace(0.05, 3.0, 48)
    pts_fine = [np.array([r, 1.0]) for r in grid]
    pts_coarse = pts_fine[::2]
    rep1 = on.ricci_bound_report(g, gp, pts_coarse)
    rep2 = on.ricci_bound_report(g, gp, pts_fine)
    stable = (rep2.sup_ricci >= rep1.sup_ricci - 1e-12
              and (rep2.sup_ricci - rep1.sup_ricci) < 0.05 * rep1.sup_ricci)

    # k_hat growth like eps^-2 as the cap shrinks
    eps_ladder = [0.2, 0.1, 0.05, 0.025]
    k_hats = []
    for eps in eps_ladder:
        m = mt.smoothed_cone(0.7, eps)
        vals = [cv.sup_sectional_coordinate_planes(m, [r, 1.0])
                for r in np.linspace(0.15 * eps, 1.9 * eps, 12)]
        k_hats.append(max(vals))
    slope = np.polyfit(np.log(eps_ladder), np.log(k_hats), 1)[0]
    slope_ok = abs(slope + 2.0) <= 0.3

    ok = stable and slope_ok and budget.done() < budget.limit
    report(8, "Theorem 4.2 boundedness shadow", ok, budget,
           f"sup|Ric~| {rep1.sup_ricci:.2f} -> {rep2.sup_ricci:.2f} "
           f"({100 * (rep2.sup_ricci - rep1.sup_ricci) / rep1.sup_ricci:.2f}% on doubling), "
           f"k_hat slope {slope:.3f}")


def test_acceptance_09_gh_sanity():
    budget = Budget(300.0)
    # matched-layout smoothed vs exact cone annulus
    rng = np.random.default_rng(9)
    cone_s = mt.smoothed_cone(0.7, 0.1)
    cone_e = mt.exact_cone(0.7)
    res1 = gh.sample_space(cone_s, [(0.25, 2.0), (0.3, 5.9)], 30, rng=rng)
    res2 = gh.sample_space(cone_e, [(0.25, 2.0), (0.3, 5.9)], 30,
                           layout=res1.layout)
    corr = gh.natural_correspondence(30)
    upper_cone = gh.gh_upper(res1.space, res2.space, corr)
    lower_cone = gh.gh_lower(res1.space, res2.space)

    # rescaled Eguchi-Hanson annulus vs the exact cone over RP^3 at lam = 8
    upper_eh, A, B = gh.eguchi_hanson_gh_comparison(lam=8.0, count=12, seed=3)
    lower_eh = gh.gh_lower(A, B)

    ok = (lower_cone <= upper_cone + 1e-12 and upper_cone <= 1e-9
          and lower_eh <= upper_eh + 1e-12 and upper_eh <= 0.05
          and budget.done() < budget.limit)
    report(9, "GH sanity", ok, budget,
           f"cone pair upper {upper_cone:.2e} (lower {lower_cone:.2e}), "
           f"EH lam=8 upper {upper_eh:.2e} (lower {lower_eh:.2e})")


def test_acceptance_10_property_suites():
    budget = Budget(300.0)
    rng = np.random.default_rng(10)
    checks = {}

    # parser round trip at 1e-14
    m = mt.smoothed_cone(0.7, 0.1)
    back = mt.parse_metric(mt.print_metric(m))
    worst = 0.0
    for p in m.sample_interior(rng, 100, margin=0.1):
        worst = max(worst, float(np.abs(m.evaluate(p) - back.evaluate(p)).max()))
    checks["parser-round-trip"] = worst <= 1e-14

    # derivative vs central differences at 1e-6
    e = ex.parse_expr("sin(th)^2*exp(th/3)")
    d = ex.differentiate(e, "th")
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.2, 2.0)
        fd = (ex.evaluate(e, {"th": x + 1e-5}) - ex.evaluate(e, {"th": x - 1e-5})) / 2e-5
        got = ex.evaluate(d, {"th": x})
        worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
    checks["derivative-vs-fd"] = worst <= 1e-6

    # Bianchi identities on Eguchi-Hanson
    eh = mt.eguchi_hanson(1.0)
    p = np.array([1.7, 1.2, 0.6, 0.9])
    R = cv.riemann(eh, p).rlow
    scale = np.abs(R).max()
    first = np.abs(R + np.einsum("ijkl->jkil", R) + np.einsum("ijkl->kijl", R)).max()
    nr = cv.curvature_gradient(eh, p).nabla_r
    second = np.abs(nr + np.transpose(nr, (1, 2, 0, 3, 4))
                    + np.transpose(nr, (2, 0, 1, 3, 4))).max()
    checks["bianchi"] = (first / scale <= 1e-9
                         and second / max(np.abs(nr).max(), 1e-12) <= 1e-8)

    # bi-invariance of b at 1e-12
    worst = 0.0
    for _ in range(10):
        a = ot.unvec_skew(rng.normal(size=6), 4)
        c = ot.unvec_skew(rng.normal(size=6), 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        worst = max(worst, abs(ot.biinvariant_inner(q @ a @ q.T, q @ c @ q.T)
                               - ot.biinvariant_inner(a, c)))
    checks["b-ad-invariance"] = worst <= 1e-12

    # transport isometry at 1e-8
    sphere = mt.round_sphere()
    S = hl.section_frame(sphere, np.array([1.0, 0.2]))
    P = hl.transport_matrix(sphere, [[1.0, 0.2]], [[1.7, 1.6]], S)
    G_end = sphere.evaluate([1.7, 1.6])
    checks["transport-isometry"] = float(
        np.abs(P.T @ G_end @ P - np.eye(2)).max()) <= 1e-8

    # fiber-distance pseudo-metric axioms at 1e-8
    cone = mt.smoothed_cone(math.sqrt(2) - 1, 0.05)
    samples = hl.circle_power_samples(cone, [0.15, 0.0], axis=1,
                                      period=2 * math.pi, max_power=25)
    frames = [ot.rotation2(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
    ok_axioms = True
    for e1 in frames:
        for e2 in frames:
            d12 = hl.fiber_distance(samples, e1, e2)
            d21 = hl.fiber_distance(samples, e2, e1)
            ok_axioms &= abs(d12 - d21) <= 1e-8
            for e3 in frames:
                ok_axioms &= (hl.fiber_distance(samples, e1, e3)
                              <= d12 + hl.fiber_distance(samples, e2, e3) + 1e-8)
    checks["fiber-pseudo-metric"] = ok_axioms

    # scaling laws at 1e-9 relative
    lam = 2.0
    scaled = mt.rescaled(eh, lam)
    g1 = cv.christoffel(eh, p).gamma
    g2 = cv.christoffel(scaled, p).gamma
    r1 = cv.riemann(eh, p).rlow
    r2 = cv.riemann(scaled, p).rlow
    s1 = cv.sectional(eh, p, np.eye(4)[0], np.eye(4)[1])
    s2 = cv.sectional(scaled, p, np.eye(4)[0], np.eye(4)[1])
    j1, j2 = cv.curvature_gradient(eh, p), cv.curvature_gradient(scaled, p)
    n1 = cv.tensor_norm(j1.nabla_r, j1.G, "lllll")
    n2 = cv.tensor_norm(j2.nabla_r, j2.G, "lllll")
    checks["scaling-laws"] = (
        np.abs(g1 - g2).max() <= 1e-9 * max(1.0, np.abs(g1).max())
        and np.abs(lam ** 2 * r1 - r2).max() <= 1e-9 * np.abs(r2).max()
        and abs(s2 - s1 / lam ** 2) <= 1e-9 * abs(s1)
        and abs(n2 - n1 / lam ** 3) <= 1e-9 * abs(n1))

    failed = [k for k, v in checks.items() if not v]
    ok = not failed and budget.done() < budget.limit
    report(10, "property suites", ok, budget,
           "all sub-checks pass" if not failed else f"failed: {failed}")
