"""Parallel transport along curves, holonomy sampling with loop-length
accounting, minimal-loop-length estimates, infinitesimal-holonomy
estimation across metric families, and the restricted fiber distance
min_a sqrt(L(a)^2 + d_b(a e, e')^2).

Holonomy elements are expressed in the anchor-section gauge: the
g'-orthonormal frame obtained by Gram-Schmidt of the coordinate basis at
the loop's basepoint.  Loops may close up to a declared coordinate shift
(one full period of an angular coordinate); the transport code verifies
that the metric components are invariant under that shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import ortho
from .curvature import (_OFF_CHART_ERRORS, DomainExitError, _GammaCache, curve_length,
                        exp_map, geodesic_between, geodesic_ivp)
from .metric import MetricSpec

CLOSURE_TOL = 1e-10
TRANSPORT_RTOL = 1e-10
TRANSPORT_ATOL = 1e-11
ORTHONORMALITY_DRIFT = 1e-8


# ---------------------------------------------------------------------------
# curves

class Segment:
    """One smooth piece of a curve: point(t) and velocity(t) on [0, 1],
    (n,) at a number t and (k, n) at an array of k values."""

    def __init__(self, point, velocity):
        self._point = point
        self._velocity = velocity

    def point(self, t):
        return np.asarray(self._point(t), dtype=float)

    def velocity(self, t):
        return np.asarray(self._velocity(t), dtype=float)


def line_segment(a, b):
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    return Segment(lambda t: a + np.asarray(t)[..., None] * d,
                   lambda t: d.copy() if np.ndim(t) == 0 else np.repeat(d[None], len(t), axis=0))


def angular_segment(base, axis, angle0, angle1):
    """Sweep one coordinate (e.g. the phi of a cone) holding the rest fixed."""
    base = np.asarray(base, dtype=float)

    def point(t):
        p = np.empty(np.shape(t) + base.shape)
        p[...] = base
        p[..., axis] = angle0 + np.multiply(t, angle1 - angle0)
        return p

    def velocity(t):
        v = np.zeros(np.shape(t) + base.shape)
        v[..., axis] = angle1 - angle0
        return v

    return Segment(point, velocity)


@dataclass
class LoopSpec:
    basepoint: np.ndarray
    segments: list
    closure_shift: np.ndarray = None
    descriptor: str = ""
    length: float = None        # filled in under the length metric

    def __post_init__(self):
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        if self.closure_shift is None:
            self.closure_shift = np.zeros(len(self.basepoint))
        else:
            self.closure_shift = np.asarray(self.closure_shift, dtype=float)
        start = self.segments[0].point(0.0)
        end = self.segments[-1].point(1.0)
        gap = np.abs(end - start - self.closure_shift).max()
        if gap > CLOSURE_TOL:
            raise ValueError(f"loop is not closed: endpoint gap {gap:.3e}")
        if np.abs(start - self.basepoint).max() > CLOSURE_TOL:
            raise ValueError("loop does not start at its basepoint")

    def reversed(self):
        segs = []
        for seg in reversed(self.segments):
            segs.append(Segment(lambda t, s=seg: s.point(1.0 - t),
                                lambda t, s=seg: -s.velocity(1.0 - t)))
        rev = LoopSpec(self.basepoint + self.closure_shift, segs,
                       -self.closure_shift, self.descriptor + "^-1", self.length)
        return rev

    def compute_length(self, g: MetricSpec):
        total = 0.0
        for seg in self.segments:
            total += curve_length(g, seg.point, seg.velocity)
        self.length = total
        return total


def polyline_loop(points, descriptor="polyline", closure_shift=None):
    """Piecewise-straight closed loop; a nonzero closure shift must be
    declared explicitly (it is checked against the metric's periods)."""
    pts = [np.asarray(p, dtype=float) for p in points]
    segs = [line_segment(a, b) for a, b in zip(pts[:-1], pts[1:])]
    return LoopSpec(pts[0], segs, closure_shift, descriptor)


def plaquette_loop(p, i, j, delta, descriptor=None):
    p = np.asarray(p, dtype=float)
    ei = np.zeros(len(p))
    ej = np.zeros(len(p))
    ei[i] = delta
    ej[j] = delta
    pts = [p, p + ei, p + ei + ej, p + ej, p]
    return LoopSpec(p, [line_segment(a, b) for a, b in zip(pts[:-1], pts[1:])],
                    None, descriptor or f"plaquette({i},{j},{delta})")


def coordinate_circle_loop(basepoint, axis, period, orientation=1, turns=1,
                           descriptor=None):
    """Loop sweeping a periodic coordinate by `turns` full periods."""
    base = np.asarray(basepoint, dtype=float)
    a0 = base[axis]
    a1 = a0 + orientation * turns * period
    seg = angular_segment(base, axis, a0, a1)
    shift = np.zeros(len(base))
    shift[axis] = a1 - a0
    return LoopSpec(base, [seg], shift,
                    descriptor or f"circle(axis={axis}, turns={orientation * turns})")


# ---------------------------------------------------------------------------
# sections and transport

def section_frame(m: MetricSpec, p):
    """Gram-Schmidt of the coordinate basis at p (see `cholesky_section`)."""
    return cholesky_section(m.check_spd(np.asarray(p, dtype=float)))


def cholesky_section(G):
    """Gram-Schmidt of the coordinate basis under the SPD matrix G: S with
    S^T G S = I, upper triangular with positive diagonal (equals chol(G)^-T).
    G may be a stack (..., n, n)."""
    return np.swapaxes(np.linalg.inv(np.linalg.cholesky(G)), -1, -2)


def _verify_shift_invariance(m: MetricSpec, p, shift, tol=1e-9):
    if not np.any(shift):
        return
    g0 = m.evaluate(p)
    g1 = m.evaluate(p + shift)
    scale = max(1.0, float(np.abs(g0).max()))
    if np.abs(g0 - g1).max() > tol * scale:
        raise ValueError("loop closure shift is not a metric-invariant translation")


def transport_matrix(conn: MetricSpec, segments, frame0, rtol=TRANSPORT_RTOL,
                     atol=TRANSPORT_ATOL):
    """Integrate frame transport E' = -Gamma[c'(t)] E along the segments.

    frame0: (n, k) matrix whose columns are coordinate components of the
    transported vectors.  Returns the final (n, k) matrix.
    """
    cache = _GammaCache(conn)
    n = conn.dim
    E = np.array(frame0, dtype=float)
    k = E.shape[1]
    for seg in segments:
        def rhs(t, y):
            x = seg.point(t)
            v = seg.velocity(t)
            gamma = cache.gamma(x)
            gv = np.einsum("kil,i->kl", gamma, v)
            return (-gv @ y.reshape(n, k)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), E.ravel(), method="RK45",
                        rtol=rtol, atol=atol)
        if not sol.success:
            # the step size collapses where the curve meets a chart singularity
            raise DomainExitError(sol.t[-1], seg.point(sol.t[-1]))
        E = sol.y[:, -1].reshape(n, k)
    return E


def holonomy_element(conn: MetricSpec, loop: LoopSpec):
    """Transport around the loop, expressed in the anchor-section gauge and
    polar-projected onto O(n) (drift beyond ORTHONORMALITY_DRIFT raises)."""
    S = section_frame(conn, loop.basepoint)
    _verify_shift_invariance(conn, loop.basepoint, loop.closure_shift)
    P = transport_matrix(conn, loop.segments, S)
    h = np.linalg.solve(S, P)
    drift = float(np.abs(h.T @ h - np.eye(conn.dim)).max())
    if drift > ORTHONORMALITY_DRIFT:
        raise RuntimeError(f"transport orthonormality drift {drift:.3e}")
    u, _, vt = np.linalg.svd(h)
    return u @ vt


# ---------------------------------------------------------------------------
# samples

@dataclass
class HolonomySample:
    element: np.ndarray
    loop_length: float
    descriptor: str = ""

    def to_json_obj(self):
        return {"matrix": self.element.ravel().tolist(),
                "length": self.loop_length,
                "loop": self.descriptor}


def _dedup(samples, tol=1e-6):
    """Greedy by loop length: a sample is dropped when d_b < tol to an
    earlier kept one.  Only the kept samples that the Frobenius lower bound
    cannot rule out are compared with the exact group_distance."""
    ordered = sorted(samples, key=lambda s: s.loop_length)
    if not ordered:
        return []
    stack = np.empty((len(ordered),) + np.shape(ordered[0].element))   # kept elements
    kept = []
    for s in ordered:
        x = ortho.check_orthogonal(s.element)
        lower = ortho.frobenius_lower_bound(stack[:len(kept)], x)
        if any(ortho.group_distance(s.element, kept[i].element) < tol
               for i in np.flatnonzero(lower < tol)):
            continue
        stack[len(kept)] = x
        kept.append(s)
    return kept


def holonomy_samples(conn: MetricSpec, loops, length_metric: MetricSpec = None,
                     word_length=1, include_inverses=True, dedup_tol=1e-6):
    """Holonomy elements of the given loops (all sharing one basepoint),
    closed under products up to `word_length` letters and inverses, with
    exact additive length accounting.  Deduplicated with d_b < dedup_tol,
    keeping the smaller length.
    """
    if word_length < 1:
        raise ValueError(f"word length must be at least 1, got {word_length}")
    g = length_metric or conn
    base = [HolonomySample(np.eye(conn.dim), 0.0, "constant")]
    for loop in loops:
        if loop.length is None:
            loop.compute_length(g)
        h = holonomy_element(conn, loop)
        base.append(HolonomySample(h, loop.length, loop.descriptor))
        if include_inverses:
            base.append(HolonomySample(h.T, loop.length, loop.descriptor + "^-1"))
    if word_length == 1:
        return _dedup(base, dedup_tol)
    words = list(base)
    frontier = list(base)
    for _ in range(1, word_length):
        nxt = []
        for w in frontier:
            for s in base[1:]:
                # gamma_w then gamma_s: transport composes as h_s h_w
                nxt.append(HolonomySample(s.element @ w.element,
                                          w.loop_length + s.loop_length,
                                          f"{w.descriptor}*{s.descriptor}"))
        words.extend(nxt)
        frontier = _dedup(nxt, dedup_tol)
        # a greedy pass over its own output keeps every element, so the
        # final `words` needs no further pass
        words = _dedup(words, dedup_tol)
    return words


def circle_power_samples(conn: MetricSpec, basepoint, axis, period,
                         length_metric=None, max_power=50, orientation=-1):
    """Powers of one periodic-coordinate circle: transport once, then take
    matrix powers with additive lengths (holonomy of the k-fold loop)."""
    g = length_metric or conn
    loop = coordinate_circle_loop(basepoint, axis, period, orientation=orientation)
    L1 = loop.compute_length(g)
    h = holonomy_element(conn, loop)
    out = [HolonomySample(np.eye(conn.dim), 0.0, "constant")]
    P = np.eye(conn.dim)
    for k in range(1, max_power + 1):
        P = h @ P
        out.append(HolonomySample(P.copy(), k * L1, f"circle^{k}"))
        out.append(HolonomySample(P.T.copy(), k * L1, f"circle^-{k}"))
    return _dedup(out)


def min_loop_length(samples, target, tol=1e-6):
    """Smallest sampled loop length realizing `target` within d_b <= tol;
    an upper bound for the true L(target), +inf when unseen."""
    target = ortho.check_orthogonal(np.asarray(target, dtype=float))
    n = target.shape[0]
    elements = np.reshape([s.element for s in samples], (-1, n, n))
    lower = ortho.frobenius_lower_bound(ortho.check_orthogonal(elements), target)
    best = math.inf
    for s, lo in zip(samples, lower):
        if lo <= tol and ortho.group_distance(s.element, target) <= tol:
            best = min(best, s.loop_length)
    return best


def fiber_distance(samples, e, e_prime):
    """min over samples a of sqrt(L(a)^2 + d_b(a e, e')^2): the restricted
    distance on a fiber, certified as an upper bound.  The constant loop is
    always included, so the value never exceeds d_b(e, e').

    Samples are visited by loop length; the search stops at the first one
    with L(a) >= best and skips those whose Frobenius lower bound on
    d_b(a e, e') already puts them at or above the best, so the exact
    group_distance decides every candidate that can lower the minimum."""
    e = ortho.check_orthogonal(np.asarray(e, dtype=float))
    e_prime = ortho.check_orthogonal(np.asarray(e_prime, dtype=float))
    best = ortho.group_distance(e, e_prime)
    moved = [s.element @ e for s in samples]
    n = e.shape[0]
    lower = ortho.frobenius_lower_bound(
        ortho.check_orthogonal(np.reshape(moved, (-1, n, n))), e_prime)
    for i in sorted(range(len(samples)), key=lambda i: samples[i].loop_length):
        length = samples[i].loop_length
        if length >= best:
            break
        if math.hypot(length, lower[i]) >= best:
            continue
        d = ortho.group_distance(moved[i], e_prime)
        if math.isfinite(d):
            best = min(best, math.hypot(length, d))
    return best


# ---------------------------------------------------------------------------
# loop generators

def geodesic_triangle_loops(m: MetricSpec, basepoint, scale, count, rng,
                            max_tries=None):
    """Closed geodesic triangles through the basepoint: two vertices from
    exp_map with random directions, sides by two-point shooting."""
    p = np.asarray(basepoint, dtype=float)
    n = m.dim
    G = m.check_spd(p)
    loops = []
    tries = 0
    max_tries = max_tries or 10 * count
    while len(loops) < count and tries < max_tries:
        tries += 1
        try:
            dirs = rng.normal(size=(2, n))
            verts = []
            for d in dirs:
                d = d / math.sqrt(d @ G @ d) * scale
                verts.append(exp_map(m, p, d, 1.0))
            a, b = verts
            segs = []
            lengths = 0.0
            for s, t in ((p, a), (a, b), (b, p)):
                v, seg_len = geodesic_between(m, s, t, rtol=1e-9, atol=1e-9)
                segs.append(_geodesic_segment(m, s, v))
                lengths += seg_len
            loop = LoopSpec(p, segs, None, f"geo-triangle#{len(loops)}")
            loop.length = lengths
            loops.append(loop)
        except _OFF_CHART_ERRORS:
            continue
    return loops


def _geodesic_segment(m: MetricSpec, p, v):
    sol = geodesic_ivp(m, p, v, 1.0)
    n = m.dim
    return Segment(lambda t: sol.sol(t)[:n].T, lambda t: sol.sol(t)[n:].T)


def coordinate_triangle_loops(basepoint, scale, count, rng, dim):
    """Closed triangles with straight coordinate sides near the basepoint."""
    p = np.asarray(basepoint, dtype=float)
    loops = []
    for k in range(count):
        a = p + scale * rng.uniform(-1, 1, size=dim)
        b = p + scale * rng.uniform(-1, 1, size=dim)
        loops.append(polyline_loop([p, a, b, p], f"tri#{k}"))
    return loops


def plaquette_loops(basepoint, delta, dim, planes=None):
    planes = planes or [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return [plaquette_loop(basepoint, i, j, delta) for i, j in planes]


# ---------------------------------------------------------------------------
# infinitesimal holonomy along a family of scales

@dataclass
class H0FamilyMember:
    scale: float
    conn: MetricSpec
    length_metric: MetricSpec
    basepoint: np.ndarray
    loops: list                 # LoopSpec list or prebuilt HolonomySample list


@dataclass
class H0Report:
    estimate: ortho.SubgroupEstimate
    per_scale: list             # (scale, label, kept sample count, threshold)
    stabilized: bool

    def labels(self):
        return [row[1] for row in self.per_scale]


def estimate_H0(members, threshold=None, word_length=2, diam=3.0,
                classify_kwargs=None) -> H0Report:
    """Estimate the infinitesimal holonomy group from a ladder of scales.

    Keeps only samples whose loop length is below threshold(scale) (default
    scale^{-1/2} * diam relative to the first rung) and reports whether the
    classification label stabilizes over the last three rungs.
    """
    classify_kwargs = classify_kwargs or {}
    scales = [mem.scale for mem in members]
    s0 = scales[0]

    def default_threshold(scale):
        ratio = s0 / scale if scale >= s0 else scale / s0
        return math.sqrt(ratio) * diam

    thresh = threshold or default_threshold
    per_scale = []
    kept_all = []
    for mem in members:
        if mem.loops and isinstance(mem.loops[0], HolonomySample):
            samples = mem.loops
        else:
            samples = holonomy_samples(mem.conn, mem.loops, mem.length_metric,
                                       word_length=word_length)
        cut = thresh(mem.scale)
        kept = [s for s in samples if s.loop_length <= cut]
        if not kept:
            kept = [HolonomySample(np.eye(mem.conn.dim), 0.0, "constant")]
        est = ortho.classify_subgroup([(s.element, s.loop_length) for s in kept],
                                      **classify_kwargs)
        per_scale.append((mem.scale, est.label, len(kept), cut))
        kept_all = kept
    labels = [row[1] for row in per_scale]
    stabilized = len(labels) >= 3 and len(set(labels[-3:])) == 1
    final = ortho.classify_subgroup([(s.element, s.loop_length) for s in kept_all],
                                    **classify_kwargs)
    if not stabilized:
        final = ortho.SubgroupEstimate("other", final.n, final.rank,
                                       final.algebra_basis, final.finite_generators,
                                       dict(final.residuals, unstable=labels))
    return H0Report(final, per_scale, stabilized)


# ---------------------------------------------------------------------------
# serialization

def samples_to_jsonl(samples):
    import json
    return "\n".join(json.dumps(s.to_json_obj(), sort_keys=True) for s in samples)


def samples_from_jsonl(text, n):
    """Samples written by samples_to_jsonl; a malformed line raises ValueError."""
    import json
    out = []
    for k, line in enumerate(text.strip().splitlines(), 1):
        try:
            obj = json.loads(line)
            mat = np.array(obj["matrix"], dtype=float).reshape(n, n)
            out.append(HolonomySample(mat, float(obj["length"]), obj.get("loop", "")))
        except (KeyError, TypeError, AttributeError, ValueError) as err:
            raise ValueError(f"bad holonomy sample on line {k}: {err!r}") from None
    return out
