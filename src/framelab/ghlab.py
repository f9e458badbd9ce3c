"""Finite-sample Gromov-Hausdorff machinery and the convergence
experiments: cone fiber collapse across a cap ladder, the rescaled
Eguchi-Hanson study, and upper/lower GH estimates between finite metric
spaces.

Sampled distances are genuine path lengths, so upper bounds on the true
ones; GH values are estimates from them: upper through explicit
correspondences (natural chart identifications), lower from diameter gap
and packing-vs-covering counts; no optimal-matching search.
Limit spaces (exact cones, the asymptotic cone of Eguchi-Hanson) are
closed-form distance evaluators rather than sampled manifolds.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import holonomy as hl
from . import ortho
from .curvature import _OFF_CHART_ERRORS, curve_length, geodesic_between
from .metric import MetricSpec, smoothed_cone

TRIANGLE_TOL = 1e-9


class CorrespondenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite metric spaces

@dataclass
class FiniteMetricSpace:
    labels: list
    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise ValueError("distance matrix shape does not match labels")

    def validate(self, tol=TRIANGLE_TOL):
        """Checks a pseudo-metric to tol: zero diagonal, no negative
        entry, symmetry and the triangle inequality.  +inf is allowed (it
        separates components); NaN is not, since it fails every comparison.
        Each check compares entry by entry, so the NaN of inf - inf, which
        holds for two infinite entries, hides no other entry."""
        d = self.d
        if np.isnan(d).any():
            raise ValueError("NaN distance")
        scale = max(1.0, float(np.max(d[np.isfinite(d)], initial=0.0)))
        if np.abs(np.diag(d)).max() > tol:
            raise ValueError("nonzero diagonal")
        if (d < -tol).any():
            raise ValueError("negative distance")
        with np.errstate(invalid="ignore"):
            if (np.abs(d - d.T) > tol * scale).any():
                raise ValueError("asymmetric distance matrix")
            for k in range(d.shape[0]):
                if (d - (d[:, k][:, None] + d[k, :][None, :]) > tol * scale).any():
                    raise ValueError("triangle inequality violated")
        return self

    @property
    def size(self):
        return len(self.labels)

    def diam(self):
        finite = self.d[np.isfinite(self.d)]
        return float(finite.max()) if finite.size else 0.0

    # -- serialization -----------------------------------------------------

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(str(l) for l in self.labels) + "\n")
        for row in self.d:
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# sampling a MetricSpec region through a geodesic graph

@dataclass
class GraphLayout:
    points: np.ndarray          # (M, n) candidate points
    edges: np.ndarray           # (E, 2) indices
    chosen: np.ndarray          # (N,) indices into points
    fill_radius: float = field(default=None, init=False)   # set with `chosen`
    edge_shifts: np.ndarray = None   # (E, n) period shifts of the edge target


@dataclass
class SampleResult:
    space: FiniteMetricSpace
    layout: GraphLayout
    fill_radius: float


def _edge_weights(m, points, edges, shifts):
    a = points[edges[:, 0]]
    b = points[edges[:, 1]] + (shifts if shifts is not None else 0.0)
    return curve_length(m, a, b, 16) if len(edges) else np.zeros(0)


def _period_shifts(m):
    """Candidate period translations (excluding zero), up to two periodic axes."""
    axes = [(i, float(m.periods[c])) for i, c in enumerate(m.coords) if c in m.periods]
    shifts = [np.zeros(m.dim)]
    for i, per in axes:
        new = []
        for s in shifts:
            for mult in (-1.0, 0.0, 1.0):
                t = s.copy()
                t[i] += mult * per
                new.append(t)
        shifts = new
    return [s for s in shifts if np.any(s)], shifts


#: neighbours per candidate point in the graph of `sample_space`
GRAPH_KNN = 12
#: candidate points per sampled point (at least 200 in all)
GRAPH_OVERSAMPLE = 10


def sample_space(m: MetricSpec, region, count, rng=None, layout: GraphLayout = None,
                 refine_pairs=False) -> SampleResult:
    """Farthest-point sample of `count` points in the coordinate region;
    pairwise distances are shortest paths on a GRAPH_KNN-nearest-neighbour
    graph over a GRAPH_OVERSAMPLE times denser candidate cloud, with edge
    weights measured under m as straight-chord lengths.  The graph-path
    overestimate is O(fill radius), which is reported.

    Passing a previous `layout` reuses the identical point cloud, edges and
    chosen subset (only edge weights are re-measured), which makes matched
    comparisons between metrics on the same chart exact.

    With refine_pairs=True every chosen pair is additionally attempted by
    two-point geodesic shooting; a shot geodesic that stays in the chart
    and beats the graph value replaces it.  Graph, chord and shot values
    are genuine path lengths, so each distance bounds its true one above.
    """
    # imported here, by their only user, so that commands that sample no
    # space start without scipy
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    from scipy.spatial import cKDTree

    rng = rng or np.random.default_rng(0)
    region = [(float(lo), float(hi)) for lo, hi in region]
    n = m.dim
    nonzero_shifts, _ = _period_shifts(m)
    if layout is None:
        M = max(count * GRAPH_OVERSAMPLE, 200)
        pts = np.empty((M, n))
        for a, (lo, hi) in enumerate(region):
            pts[:, a] = rng.uniform(lo, hi, size=M)
        # lift the neighbor search to the periodic covering so the graph can
        # wrap around angular coordinates
        all_shifts = [np.zeros(n)] + nonzero_shifts
        tiled = np.concatenate([pts + s for s in all_shifts], axis=0)
        tree = cKDTree(tiled)
        k_eff = min(GRAPH_KNN + 1, len(tiled))
        _, nbrs = tree.query(pts, k=k_eff)
        edge_map = {}
        for i in range(M):
            for jj in nbrs[i, 1:]:
                jj = int(jj)
                j = jj % M
                s = all_shifts[jj // M]
                if j == i and not np.any(s):
                    continue
                if j < i or (j == i and s[np.nonzero(s)[0][0]] < 0):
                    key = (j, i)
                    sh = -s
                else:
                    key = (i, j)
                    sh = s
                full_key = key + tuple(np.round(sh, 9))
                edge_map[full_key] = (key[0], key[1], sh)
        items = [edge_map[k] for k in sorted(edge_map)]
        edges = np.array([(i, j) for i, j, _ in items], dtype=int)
        shifts = np.array([s for _, _, s in items])
        layout = GraphLayout(pts, edges, None, edge_shifts=shifts)
        need_fps = True
    else:
        pts = layout.points
        edges = layout.edges
        shifts = layout.edge_shifts
        need_fps = layout.chosen is None
    M = len(pts)

    weights = _edge_weights(m, pts, edges, shifts)
    graph = csr_matrix((np.concatenate([weights, weights]),
                        (np.concatenate([edges[:, 0], edges[:, 1]]),
                         np.concatenate([edges[:, 1], edges[:, 0]]))),
                       shape=(M, M))

    if need_fps:
        if count > M:
            raise ValueError("region too small for the requested sample count")
        chosen = [0]
        dist_to_set = dijkstra(graph, indices=0)
        if not np.isfinite(dist_to_set).all():
            raise ValueError("sample graph is disconnected")
        for _ in range(count - 1):
            nxt = int(np.argmax(dist_to_set))
            chosen.append(nxt)
            dist_to_set = np.minimum(dist_to_set, dijkstra(graph, indices=nxt))
        layout.chosen = np.array(chosen, dtype=int)
        layout.fill_radius = float(dist_to_set.max())
    chosen = layout.chosen

    dmat_rows = dijkstra(graph, indices=chosen)
    d = dmat_rows[:, chosen]
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    if refine_pairs:
        d = _refine_pair_distances(m, pts[chosen], d, rng=rng)
    labels = [f"p{i}" for i in range(len(chosen))]
    space = FiniteMetricSpace(labels, d)
    return SampleResult(space, layout, layout.fill_radius)


def _is_flat_on(m, pts, rng, probes=5):
    from .curvature import christoffel
    idx = rng.choice(len(pts), size=min(probes, len(pts)), replace=False)
    for i in idx:
        try:
            if np.abs(christoffel(m, pts[i]).gamma).max() > 1e-12:
                return False
        except _OFF_CHART_ERRORS:
            return False
    return True


def _refine_pair_distances(m, pts, d_graph, rng):
    """Tighten graph distances with genuine path lengths: straight-chord
    quadrature under the nearest period representative (exact on flat
    charts), then fast-tolerance two-point shooting where it can help; a
    shot that converges in the chart replaces a value only if it is shorter
    by more than 1e-9."""
    d = d_graph.copy()
    n = len(pts)
    _, all_shifts = _period_shifts(m)
    chord = np.full((n, n), np.inf)
    rep = {}
    for i in range(n):
        for j in range(i + 1, n):
            best_q, best_gap = None, np.inf
            for s in all_shifts:
                q = pts[j] + s
                gap = float(np.linalg.norm(q - pts[i]))
                if gap < best_gap:
                    best_gap, best_q = gap, q
            rep[(i, j)] = best_q
    if rep:
        # a chord is admissible when its 12 points a + t (b - a) lie in the
        # chart, all tested in one call
        ci, cj = np.array(list(rep)).T
        a, b = pts[ci], np.array(list(rep.values()))
        t = np.linspace(0.0, 1.0, 12)[:, None]
        ok = m.in_domain((a[:, None] + t * (b - a)[:, None]).reshape(-1, m.dim),
                         tol=1e-12, wrap=True).reshape(len(a), -1).all(axis=1)
        if ok.any():
            chord[ci[ok], cj[ok]] = chord[cj[ok], ci[ok]] = curve_length(m, a[ok], b[ok], 32)
    improved = np.minimum(d, chord)
    if not _is_flat_on(m, pts, rng):
        # a chord agreeing with the graph value is already a geodesic
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if not (chord[i, j] <= d[i, j] * (1 + 1e-6)
                         and not chord[i, j] < d[i, j] * (1 - 5e-3))]
        if pairs:
            P = pts[[i for i, _ in pairs]]
            _, lengths, reasons = geodesic_between(
                m, P, np.array([rep[ij] for ij in pairs]),
                rtol=1e-7, atol=1e-9, tol=1e-7, max_iter=8)
            for k, (i, j) in enumerate(pairs):
                if reasons[k] is None and lengths[k] < improved[i, j] - 1e-9:
                    improved[i, j] = improved[j, i] = lengths[k]
    # re-run the metric closure so shortcuts propagate through triangles
    d = improved
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


# ---------------------------------------------------------------------------
# GH bounds

def natural_correspondence(size):
    """The identity correspondence between two spaces of `size` points."""
    return [(i, i) for i in range(size)]


def gh_upper(A: FiniteMetricSpace, B: FiniteMetricSpace, corr) -> float:
    """Half the distortion of the correspondence: GH(A, B) <= value."""
    corr = list(corr)
    left = {i for i, _ in corr}
    right = {j for _, j in corr}
    if left != set(range(A.size)) or right != set(range(B.size)):
        raise CorrespondenceError("correspondence must cover both sides")
    I, J = np.array(corr, dtype=int).reshape(-1, 2).T
    da, db = A.d[np.ix_(I, I)], B.d[np.ix_(J, J)]
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isinf(da) & np.isinf(db), 0.0, np.abs(da - db))
    # fmax skips a NaN gap instead of returning it
    return 0.5 * float(np.fmax.reduce(gap.ravel(), initial=0.0))


def _greedy_separated(space, eps):
    """An exhibited eps-separated subset (size is a packing lower bound)."""
    picked = []
    for i in range(space.size):
        if all(space.d[i, j] >= eps for j in picked):
            picked.append(i)
    return picked


def _greedy_covering(space, eps):
    """An exhibited eps-covering (size is a covering upper bound)."""
    uncovered = set(range(space.size))
    centers = []
    while uncovered:
        c = min(uncovered)
        centers.append(c)
        covered = {j for j in uncovered if space.d[c, j] <= eps}
        uncovered -= covered
    return centers


def gh_lower(A: FiniteMetricSpace, B: FiniteMetricSpace) -> float:
    """Lower bound on GH of the finite spaces as given (an estimate for
    sampled spaces): max of half the diameter gap and the packing-vs-
    covering obstruction (an eps-separated set larger than an exhibited
    covering of the other side forces distortion), over a grid of 24
    scales eps and 24 slacks per scale."""
    grid = 24
    best = 0.5 * abs(A.diam() - B.diam())
    for X, Y in ((A, B), (B, A)):
        diam = X.diam()
        if diam <= 0:
            continue
        for eps in np.linspace(diam / grid, diam, grid):
            m_sep = len(_greedy_separated(X, eps))
            if m_sep <= 1:
                continue
            # if GH < delta, an eps-separated set of X maps to an
            # (eps - 2 delta)-separated set of Y, and any rho-covering of Y
            # bounds packings at scales above 2 rho.
            for delta in np.linspace(eps / 2.0, 0.0, grid, endpoint=False):
                rho = (eps - 2.0 * delta) / 2.0
                if rho <= 0:
                    continue
                c_cov = len(_greedy_covering(Y, rho * (1 - 1e-12)))
                if m_sep > c_cov:
                    best = max(best, delta)
                    break
    return best


# ---------------------------------------------------------------------------
# closed-form limit spaces

def cone_distance(a, p1, p2):
    """Exact 2d cone C(S^1 of circumference 2 pi a): points (r, phi)."""
    r1, ph1 = p1
    r2, ph2 = p2
    dphi = abs(ph1 - ph2) % (2 * math.pi)
    dphi = min(dphi, 2 * math.pi - dphi)
    arc = a * dphi
    if arc >= math.pi:
        return r1 + r2
    return math.sqrt(max(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(arc), 0.0))


def zyz_quaternion(ph, th, ps):
    """Unit quaternion of the ZYZ Euler rotation Rz(ph) Ry(th) Rz(ps)."""
    cph, sph = math.cos(ph / 2), math.sin(ph / 2)
    cth, sth = math.cos(th / 2), math.sin(th / 2)
    cps, sps = math.cos(ps / 2), math.sin(ps / 2)
    # qz(ph) * qy(th) * qz(ps)
    w = cph * cth * cps - sph * cth * sps
    x = cph * sth * sps - sph * sth * cps
    y = cph * sth * cps + sph * sth * sps
    z = cph * cth * sps + sph * cth * cps
    return np.array([w, x, y, z])


def rp3_distance(angles1, angles2):
    """Geodesic distance on RP^3 = S^3(1)/± between ZYZ Euler points."""
    q1 = zyz_quaternion(*angles1)
    q2 = zyz_quaternion(*angles2)
    dot = min(1.0, abs(float(q1 @ q2)))
    return math.acos(dot)


def cone_rp3_distance(p1, p2):
    """Asymptotic cone of Eguchi-Hanson: C(RP^3) with chart (r, th, ph, ps)."""
    r1, *a1 = p1
    r2, *a2 = p2
    th1, ph1, ps1 = a1
    th2, ph2, ps2 = a2
    arc = rp3_distance((ph1, th1, ps1), (ph2, th2, ps2))
    return math.sqrt(max(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(arc), 0.0))


# ---------------------------------------------------------------------------
# frame-bundle sampling

@dataclass
class FrameBundleSample:
    space: FiniteMetricSpace
    base_points: np.ndarray
    fiber_angles: np.ndarray
    base_distance: np.ndarray


def sample_frame_bundle(g: MetricSpec, gp: MetricSpec, base_points,
                        fiber_count=6, loops_at=None):
    """Product-style sample of the frame bundle of a surface (n = 2):
    base points x an SO(2) fiber grid.  Distances are assembled as upper
    bounds: a base path (the straight chart chord, measured under g)
    transported with the g'-connection, a holonomy loop at the target, and
    simultaneous vertical rotation give sqrt((L_base + L_loop)^2 + d_b^2).

    Each distance is at least L_base, the chord length, by
    construction; that length is itself an upper bound on d_base(p, q), so
    nothing here is checked against d_base.
    """
    if g.dim != 2:
        raise ValueError("frame-bundle sampling implemented for surfaces")
    base_points = np.asarray(base_points, dtype=float)
    nb = len(base_points)
    angles = np.linspace(0.0, 2 * math.pi, fiber_count, endpoint=False)

    # base path lengths and transports between consecutive sample points
    base_d = np.zeros((nb, nb))
    transports = {}
    for i in range(nb):
        for j in range(nb):
            if i == j:
                transports[(i, j)] = np.eye(2)
                continue
            if j < i:
                continue
            base_d[i, j] = base_d[j, i] = curve_length(g, base_points[i], base_points[j])
            transports[(i, j)] = hl.gauge_transport(gp, base_points[[i]], base_points[[j]])
            transports[(j, i)] = transports[(i, j)].T

    # holonomy samples per base point, as element stacks and loop lengths
    samples_at = {}
    for i in range(nb):
        if loops_at is not None:
            loops = loops_at(base_points[i])
            samples = hl.holonomy_samples(gp, loops, g, word_length=1)
        else:
            samples = [hl.HolonomySample(np.eye(2), 0.0, "constant")]
        samples_at[i] = (np.array([s.element for s in samples]),
                         np.array([s.loop_length for s in samples]))

    total = nb * fiber_count
    labels = []
    d = np.zeros((total, total))
    frames = [ortho.rotation2(t) for t in angles]
    for i in range(nb):
        for ai, th in enumerate(angles):
            labels.append(f"b{i}:f{ai}")
    for I in range(total):
        i, ai = divmod(I, fiber_count)
        for J in range(I + 1, total):
            j, aj = divmod(J, fiber_count)
            u = frames[ai]
            v = frames[aj]
            Pu = transports[(i, j)] @ u
            elements, lengths = samples_at[j]
            gap = ortho.group_distance(elements @ Pu, v)
            d[I, J] = d[J, I] = np.hypot(base_d[i, j] + lengths, gap).min()
    space = FiniteMetricSpace(labels, d)
    return FrameBundleSample(space, base_points, angles, base_d)


# ---------------------------------------------------------------------------
# experiments

@dataclass
class CollapseReport:
    a: float
    ladder: list                   # dicts: eps, D, samples, min_unit_length (None
                                   # without a loop of positive length)
    reflection_disconnected: bool
    monotone: bool
    fitted_slope: float | None     # None without two positive D values

    def to_json_obj(self):
        return {"a": self.a, "ladder": self.ladder,
                "reflection_disconnected": self.reflection_disconnected,
                "monotone": self.monotone, "fitted_slope": self.fitted_slope}

    def dat_rows(self):
        return [(row["eps"], row["D"]) for row in self.ladder]


#: the cone-collapse base point of cap eps sits at r = COLLAPSE_RADIUS * eps,
#: just outside the cap r < 2 eps
COLLAPSE_RADIUS = 2.5


def fiber_collapse_experiment(a, caps, max_power=60) -> CollapseReport:
    """D(eps) = max over a 48-point theta grid of the sampled fiber distance
    between I and rot(theta) at the base point r = COLLAPSE_RADIUS eps, near
    the vertex of the cap-smoothed cone; the reflection component stays at
    infinite distance."""
    thetas = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
    reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
    ladder = []
    refl_disconnected = True
    for eps in caps:
        m = smoothed_cone(a, eps)
        rho = COLLAPSE_RADIUS * eps
        basepoint = np.array([rho, 0.0])
        samples = hl.circle_power_samples(m, basepoint, axis=1, period=2 * math.pi,
                                          max_power=max_power)
        d = hl.fiber_distance(samples, np.eye(2),
                              np.array([ortho.rotation2(th) for th in thetas] + [reflection]))
        D = float(d[:-1].max(initial=0.0))
        refl_disconnected &= math.isinf(d[-1])
        unit = min((float(s.loop_length) for s in samples if s.loop_length > 0),
                   default=None)
        ladder.append({"eps": float(eps), "D": float(D), "samples": len(samples),
                       "min_unit_length": unit})
    Ds = [row["D"] for row in ladder]
    monotone = all(b <= a_ + 1e-3 for a_, b in zip(Ds[:-1], Ds[1:]))
    slope = None
    if len(caps) >= 2 and min(Ds) > 0:
        slope = float(np.polyfit(np.log([r["eps"] for r in ladder]), np.log(Ds), 1)[0])
    return CollapseReport(float(a), ladder, refl_disconnected, monotone, slope)


@dataclass
class EguchiHansonReport:
    holonomy_ladder: list
    classification: str
    chirality_residual: float
    quotient_diameters: dict
    gh_table: list

    def to_json_obj(self):
        return {"holonomy_ladder": self.holonomy_ladder,
                "classification": self.classification,
                "chirality_residual": self.chirality_residual,
                "quotient_diameters": self.quotient_diameters,
                "gh_table": self.gh_table}


def eguchi_hanson_annulus_points(rng, count, lam):
    """Points of the rescaled annulus (rescaled radius in [1, 2], th in
    [0.7, pi - 0.7], ph and ps in [0.5, 2.5]), expressed in the original
    chart where r is lam times larger."""
    pts = np.empty((count, 4))
    pts[:, 0] = rng.uniform(lam, 2.0 * lam, size=count)
    pts[:, 1] = rng.uniform(0.7, math.pi - 0.7, size=count)
    pts[:, 2] = rng.uniform(0.5, 2.5, size=count)
    pts[:, 3] = rng.uniform(0.5, 2.5, size=count)
    return pts


def eguchi_hanson_gh_comparison(lam=8.0, count=24, seed=0):
    """Distances on the rescaled Eguchi-Hanson annulus (a = 1, two-point
    shooting) against the exact C(RP^3) annulus under the natural chart
    correspondence; returns (gh_upper value, FiniteMetricSpace pair).  A
    pair whose shot fails or leaves the chart raises its RuntimeError."""
    from .metric import eguchi_hanson, rescaled
    rng = np.random.default_rng(seed)
    base = eguchi_hanson(r_max=4.0 * lam)
    m = rescaled(base, 1.0 / lam)
    pts = eguchi_hanson_annulus_points(rng, count, lam)
    n = count
    d_eh = np.zeros((n, n))
    d_cone = np.zeros((n, n))
    I, J = np.triu_indices(n, 1)
    _, L, reasons = geodesic_between(m, pts[I], pts[J], rtol=1e-9, atol=1e-9)
    for reason in reasons:
        if reason is not None:
            raise RuntimeError(reason)
    d_eh[I, J] = d_eh[J, I] = L
    for i in range(n):
        for j in range(i + 1, n):
            ci = (pts[i, 0] / lam, pts[i, 1], pts[i, 2], pts[i, 3])
            cj = (pts[j, 0] / lam, pts[j, 1], pts[j, 2], pts[j, 3])
            d_cone[i, j] = d_cone[j, i] = cone_rp3_distance(ci, cj)
    labels = [f"p{i}" for i in range(n)]
    A = FiniteMetricSpace(labels, d_eh)
    B = FiniteMetricSpace(labels, d_cone)
    return gh_upper(A, B, natural_correspondence(n)), A, B


def haar_so(rng, count, n):
    """count Haar-random elements of SO(n), (count, n, n): Q of the QR of
    a Gaussian matrix with the signs of diag R moved into Q (Mezzadri,
    Notices AMS 54, 2007), and the first column negated where det Q < 0."""
    Q, R = np.linalg.qr(rng.normal(size=(count, n, n)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    Q[:, :, 0] *= np.where(np.linalg.det(Q) < 0, -1.0, 1.0)[:, None]
    return Q


def quotient_diameters(su2, count, rng):
    """The diameters of O(4)/SU(2), O(4)/{±I} and O(4)/O(4) on the identity
    component, exact and as maxima over `count` Haar-random elements of
    SO(4), one stacked `quotient_distance` call per subgroup.  su2 is the
    classified holonomy group; the sampled SU(2) maximum is 0 unless it is
    `SU(2)-in-SO(4)`.  With count = 0 the sampled diameters and the gap are
    None."""
    minus_I = ortho.SubgroupEstimate("finite-cyclic(2)", 4, 0, [],
                                     [-np.eye(4)], {}, order=2)
    diam_su2 = diam_pm = gap = None
    if count:
        U = haar_so(rng, count, 4)
        diam_su2 = (float(np.max(ortho.quotient_distance(np.eye(4), U, su2)))
                    if su2.label == "SU(2)-in-SO(4)" else 0.0)
        diam_pm = float(np.max(ortho.quotient_distance(np.eye(4), U, minus_I)))
        gap = diam_pm - diam_su2
    return {"diam_O4_mod_SU2": diam_su2,
            "diam_O4_mod_pmI": diam_pm,
            "diam_O4_mod_O4": 0.0,
            "gap": gap,
            "exact": {"diam_O4_mod_SU2": math.pi, "diam_O4_mod_pmI": math.sqrt(2.0) * math.pi,
                      "diam_O4_mod_O4": 0.0, "gap": (math.sqrt(2.0) - 1.0) * math.pi}}


def eguchi_hanson_experiment(lams=(4.0, 16.0, 64.0), seed=0, gh_count=20,
                             quotient_samples=40):
    """The three-part rescaled Eguchi-Hanson study (a = 1): (i) the
    holonomy samples of plaquettes of sides 0.2 and 0.35 at (r, th, ph, ps)
    = (2.2, 1.3, 0.8, 1.1) shrink with the scale while the classification
    stays SU(2); (ii) the exact diameters of O(4)/SU(2), O(4)/{±I} and
    O(4)/O(4) beside their maxima over `quotient_samples` Haar-random
    elements of SO(4) (None, with the gap, when there are none); (iii) the
    base annulus at scale 8 GH-approaches the exact cone annulus."""
    from .metric import eguchi_hanson, rescaled
    base = eguchi_hanson()
    bp = np.array([2.2, 1.3, 0.8, 1.1])
    gh_lam = 8.0
    rng = np.random.default_rng(seed)

    ladder = []
    members = []
    for lam in lams:
        m = rescaled(base, 1.0 / lam)
        loops = hl.plaquette_loops(bp, 0.2, 4) + hl.plaquette_loops(bp, 0.35, 4)
        samples = hl.holonomy_samples(m, loops, m, word_length=2)
        max_len = max(s.loop_length for s in samples)
        est = ortho.classify_subgroup([s.element for s in samples])
        ladder.append({"lambda": float(lam), "max_length": float(max_len),
                       "label": est.label,
                       "chirality_residual": float(min(
                           est.residuals.get("chirality_off_plus", 1.0),
                           est.residuals.get("chirality_off_minus", 1.0)))})
        members.append(hl.H0FamilyMember(float(lam), samples))

    report = hl.estimate_H0(members)
    su2 = report.estimate
    chirality_residual = float(min(
        su2.residuals.get("chirality_off_plus", 1.0),
        su2.residuals.get("chirality_off_minus", 1.0))) if su2.algebra_basis else 1.0

    quotient = quotient_diameters(su2, quotient_samples, rng)

    gh_val, _, _ = eguchi_hanson_gh_comparison(gh_lam, gh_count, seed)
    gh_table = [{"lambda": gh_lam, "count": gh_count, "gh_upper": float(gh_val)}]

    return EguchiHansonReport(ladder, su2.label, chirality_residual, quotient, gh_table)
