"""Parallel transport along chart chords, holonomy sampling with
loop-length accounting, minimal-loop-length estimates, infinitesimal-
holonomy estimation across metric families, and the restricted fiber
distance min_a sqrt(L(a)^2 + d_b(a e, e')^2).

Every path is a polygon of straight chart chords, given by its corners:
transport and `curve_length` take chord stacks A -> B, and a loop
(`LoopSpec`) is the polygon of its corners.  Holonomy elements are
expressed in the anchor-section gauge: the g'-orthonormal frame obtained
by Gram-Schmidt of the coordinate basis at the loop's basepoint, its
first corner.  Loops may close up to a declared coordinate shift (one full
period of an angular coordinate); the transport code verifies that the
shifted basepoint lies in the chart and that the metric components are
invariant under that shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ortho
from .curvature import DOMAIN_TOL, DomainExitError, assemble_gamma_jet, curve_length
from .metric import MetricSpec, _jet_rows

CLOSURE_TOL = 1e-10
ORTHONORMALITY_DRIFT = 1e-8


# ---------------------------------------------------------------------------
# loops

@dataclass
class LoopSpec:
    """A closed polygon of chart chords: chord j runs straight from
    corners[j] to corners[j + 1], corners (k + 1, n), and the last corner
    is corners[0] + closure_shift, to CLOSURE_TOL."""
    corners: np.ndarray
    closure_shift: np.ndarray = None
    descriptor: str = ""

    def __post_init__(self):
        self.corners = np.asarray(self.corners, dtype=float)
        if self.closure_shift is None:
            self.closure_shift = np.zeros(self.corners.shape[1])
        else:
            self.closure_shift = np.asarray(self.closure_shift, dtype=float)
        gap = np.abs(self.corners[-1] - self.corners[0] - self.closure_shift).max()
        if gap > CLOSURE_TOL:
            raise ValueError(f"loop is not closed: endpoint gap {gap:.3e}")

    def compute_length(self, g: MetricSpec):
        """The loop's length under g, the sum of its chords' lengths in
        order, from one `curve_length` call on the stack of its chords."""
        return sum(curve_length(g, self.corners[:-1], self.corners[1:]).tolist())


def polyline_loop(points, descriptor="polyline"):
    """Piecewise-straight loop, closed in the chart (no closure shift)."""
    return LoopSpec(points, None, descriptor)


def plaquette_loop(p, i, j, delta):
    p = np.asarray(p, dtype=float)
    ei = np.zeros(len(p))
    ej = np.zeros(len(p))
    ei[i] = delta
    ej[j] = delta
    return LoopSpec([p, p + ei, p + ei + ej, p + ej, p], None, f"plaquette({i},{j},{delta})")


def coordinate_circle_loop(basepoint, axis, period, orientation=1):
    """Loop sweeping a periodic coordinate by one period, in the sense of
    `orientation`: the one chord from the basepoint to its copy with that
    coordinate moved by orientation * period."""
    base = np.asarray(basepoint, dtype=float)
    end = base.copy()
    end[axis] = base[axis] + orientation * period
    return LoopSpec([base, end], end - base, f"circle(axis={axis}, turns={orientation})")


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


def section_with_derivative(G, dG):
    """Reference section S = chol(G')^-T, its exact partials dS[..., i] and
    its inverse S^-1 = chol(G')^T, from G' (..., n, n) and its partials dG
    (..., n, n, n), direction axis first after any stack axes."""
    L = np.linalg.cholesky(G)
    Linv = np.linalg.inv(L)
    S = np.swapaxes(Linv, -1, -2)
    M = Linv[..., None, :, :] @ dG @ S[..., None, :, :]
    Phi = np.tril(M, -1)
    diag = np.arange(G.shape[-1])
    Phi[..., diag, diag] = 0.5 * M[..., diag, diag]
    return S, -S[..., None, :, :] @ np.swapaxes(Phi, -1, -2), np.swapaxes(L, -1, -2)


def section_connection_coeffs(G, dG):
    """C_i = S^-1 (d_i S + Gamma'[e_i] S), skew matrices (..., n, n, n), one
    per direction, from G' and its partials as in `section_with_derivative`."""
    S, dS, Sinv = section_with_derivative(G, dG)
    gamma = assemble_gamma_jet(G, dG)[0]
    return Sinv[..., None, :, :] @ (dS + np.swapaxes(gamma, -3, -2) @ S[..., None, :, :])


def section_connection_form(G, dG, V):
    """omega = sum_i V^i C_i of `section_connection_coeffs`, skew (..., n, n),
    for the velocities V (..., n), contracted before the section algebra.

    With L = chol(G'), S^-1 dS[V] = -Phi[V]^T and S^-1 Gamma'[V] S =
    (1/2) L^-1 (dG[V] + B - B^T) L^-T, where dG[V] = V^i d_i G' and
    B_ml = V^i d_l G'_mi.  For P = L^-1 dG[V] L^-T, symmetric, this gives
    omega = (1/2)(T - T^T + L^-1 (B - B^T) L^-T), T = tril(P, -1)."""
    Linv = np.linalg.inv(np.linalg.cholesky(G))
    LinvT = np.swapaxes(Linv, -1, -2)
    n = G.shape[-1]
    dGV = (V[..., None, :] @ dG.reshape(dG.shape[:-3] + (n, n * n))).reshape(G.shape)
    Bt = (dG @ V[..., None, :, None])[..., 0]
    T = np.tril(Linv @ dGV @ LinvT, -1)
    return 0.5 * (T - np.swapaxes(T, -1, -2) + Linv @ (np.swapaxes(Bt, -1, -2) - Bt) @ LinvT)


def _verify_shift_invariance(m: MetricSpec, p, shift, tol=1e-9):
    if not np.any(shift):
        return
    if not m.in_domain(p + shift, tol=DOMAIN_TOL, wrap=True):
        raise ValueError(f"loop closure shift leaves the chart at {(p + shift).tolist()}: "
                         "the shifted coordinate has no period in this chart")
    g0 = m.evaluate(p)
    g1 = m.evaluate(p + shift)
    scale = max(1.0, float(np.abs(g0).max()))
    if np.abs(g0 - g1).max() > tol * scale:
        raise ValueError("loop closure shift is not a metric-invariant translation")


#: step doubling stops once a chord's max |h_N - h_2N| is at most this
TRANSPORT_TOL = 1e-11
#: Magnus steps per chord of the first round's coarse product (a power of 2)
TRANSPORT_STEPS = 8
#: step doubling beyond this many steps per chord raises DomainExitError
TRANSPORT_MAX_STEPS = 4096


def _connection_at(conn: MetricSpec, A, D, s):
    """omega(s) = sum_i D^i C_i(A + s D) at the parameters s (k,) of every
    chord A[j] -> A[j] + D[j] of the stacks A and D (c, n), as
    (c, k, n, n), from one stacked evaluation of G and dG (`_jet_rows`) at
    the nodes A + s D and `section_connection_form`.  A node outside the
    chart (periodic coordinates wrapped), whose jet fails, or whose G has
    no Cholesky factor raises DomainExitError at the first such node in
    chord order."""
    X = (A[:, None] + s[:, None] * D[:, None]).reshape(-1, conn.dim)
    V = np.repeat(D, len(s), axis=0)
    bad = ~conn.in_domain(X, tol=DOMAIN_TOL, wrap=True)
    (G, dG), errors = _jet_rows(conn, X, 1)
    bad[list(errors)] = True
    if not bad.any():
        try:
            om = section_connection_form(G, dG, V)
        except np.linalg.LinAlgError:
            bad = _cholesky_fails(G)
            if not bad.any():
                raise
    if bad.any():
        k = len(s)
        first = min(np.flatnonzero(bad), key=lambda r: (r // k, s[r % k]))
        raise DomainExitError(float(s[first % k]), X[first])
    return om.reshape((len(A), len(s)) + om.shape[1:])


def _cholesky_fails(G):
    """For each matrix of the stack G, whether it has no Cholesky factor."""
    fails = np.zeros(len(G), dtype=bool)
    for k, g in enumerate(G):
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            fails[k] = True
    return fails


def _simpson_steps(om):
    """exp(Omega) of the M fourth-order Magnus steps of h' = -omega h on
    [0, 1] whose Simpson nodes 0, 1/2, 1 (in step fractions) hold omega at
    om (..., 2M + 1, n, n), as (..., M, n, n).  With omega_0, omega_1/2,
    omega_1 at a step of length d = 1/M,
    Omega = -(d/6)(omega_0 + 4 omega_1/2 + omega_1) - (d^2/12)[omega_0, omega_1]."""
    A0, Ah, A1 = om[..., 0:-1:2, :, :], om[..., 1::2, :, :], om[..., 2::2, :, :]
    d = 2.0 / (om.shape[-3] - 1)
    return ortho.group_exp(-(d / 6.0) * (A0 + 4.0 * Ah + A1)
                           - (d * d / 12.0) * (A0 @ A1 - A1 @ A0))


def _ordered_product(steps):
    """steps[..., N-1, :, :] @ ... @ steps[..., 0, :, :] for N a power of 2,
    as log2(N) stacked products of neighbours."""
    while steps.shape[-3] > 1:
        steps = steps[..., 1::2, :, :] @ steps[..., 0::2, :, :]
    return steps[..., 0, :, :]


def gauge_transport(conn: MetricSpec, A, B):
    """Frame transport along the chords A[j] -> B[j] of the stacks A and B
    (c, n), in order, in the section gauge: h in SO(n) with
    E(1) = S(B[-1]) h for the transported frame E(0) = S(A[0]), S the
    Cholesky section of conn.

    Along a chord with D = B[j] - A[j], E' = -Gamma[D] E reads
    h' = -omega(t) h in this gauge, omega the skew sum_i D^i C_i of
    `section_connection_coeffs`.  Each chord runs N and 2N fourth-order
    Magnus steps on Simpson nodes (Iserles & Norsett 1999; Blanes, Casas,
    Oteo & Ros 2009, sec. 5), which nest: omega is kept on the lattice
    j/(4N), j = 0..4N, whose every other node serves the N steps and all
    of which serve the 2N steps.  The first round evaluates the lattice of
    every chord in one stacked call; the chords whose max |h_N - h_2N|
    exceeds TRANSPORT_TOL go on to 4N steps, which add only the midpoints
    of the lattice's 4N intervals, and so on, one stacked evaluation of
    new midpoints per round, each round keeping its finer product and its
    lattice.  A step is the exponential of a skew matrix, so h is
    orthogonal to rounding.  Raises DomainExitError where a node leaves
    the chart (see `_connection_at`; chord ends are nodes, and a corner
    within DOMAIN_TOL of the chart's edge is inside), or when a chord
    would need more than TRANSPORT_MAX_STEPS steps, at the step whose
    halves disagree most."""
    A = np.asarray(A, dtype=float)
    D = np.asarray(B, dtype=float) - A
    N = TRANSPORT_STEPS
    h = np.empty((len(A), conn.dim, conn.dim))
    todo = np.arange(len(A))
    om = _connection_at(conn, A, D, np.arange(4 * N + 1) / (4 * N))
    coarse = _simpson_steps(om[:, ::2])
    while True:
        fine = _simpson_steps(om)
        h[todo] = _ordered_product(fine)
        diff = np.abs(_ordered_product(coarse) - h[todo]).max(axis=(-2, -1))
        open_ = diff > TRANSPORT_TOL
        if not open_.any():
            break
        todo, om, coarse, fine = todo[open_], om[open_], coarse[open_], fine[open_]
        if 4 * N > TRANSPORT_MAX_STEPS:
            # the coarse step that its two fine halves reproduce worst
            local = np.abs(coarse[0] - fine[0, 1::2] @ fine[0, 0::2]).max(axis=(-2, -1))
            s = (float(np.argmax(local)) + 0.5) / N
            raise DomainExitError(s, A[todo[0]] + s * D[todo[0]])
        N *= 2
        mid = _connection_at(conn, A[todo], D[todo], np.arange(1, 4 * N, 2) / (4 * N))
        nested = np.empty((len(todo), 4 * N + 1) + om.shape[2:])
        nested[:, 0::2], nested[:, 1::2] = om, mid
        om, coarse = nested, fine
    total = h[0]
    for hj in h[1:]:
        total = hj @ total
    return total


def transport_matrix(conn: MetricSpec, A, B, frame0):
    """Frame transport E' = -Gamma[c'(t)] E along the chords A[j] -> B[j]
    of the stacks A and B (c, n), in order.

    frame0: (n, k) matrix whose columns are coordinate components of the
    transported vectors.  Returns the final (n, k) matrix,
    S(B[-1]) h S(A[0])^-1 frame0 with h the `gauge_transport`.
    """
    S0 = section_frame(conn, A[0])
    S1 = section_frame(conn, B[-1])
    h = gauge_transport(conn, A, B)
    return S1 @ h @ np.linalg.solve(S0, np.asarray(frame0, dtype=float))


def holonomy_element(conn: MetricSpec, loop: LoopSpec):
    """Transport around the loop, expressed in the anchor-section gauge (the
    section at the basepoint and at its closure-shifted copy agree) and
    polar-projected onto O(n), which removes rounding only (drift beyond
    ORTHONORMALITY_DRIFT raises)."""
    conn.check_spd(loop.corners[0])
    _verify_shift_invariance(conn, loop.corners[0], loop.closure_shift)
    h = gauge_transport(conn, loop.corners[:-1], loop.corners[1:])
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


#: Gram entries per row block of `_dedup`'s screen, and matrix entries per
#: side of one of its stacked distance calls (float64, 4 MB each)
SCREEN_ENTRIES = 1 << 19
#: absolute rounding margin of `_dedup`'s Gram screen, on squared norms
SCREEN_MARGIN = 1e-12


def _near(F, sq, rows, cols, bound):
    """Whether |F_r|^2 + |F_c|^2 - 2 <F_r, F_c> < bound, for the rows r of
    the slice `rows` against `cols` (a slice or an index array), from one
    matmul; sq holds every |F_k|^2."""
    return sq[rows, None] + sq[None, cols] - 2.0 * (F[rows] @ F[cols].T) < bound


def _drop_close(X, J, I, keep, tol):
    """Greedy over the candidate pairs (j, i), i < j, ordered by j: set
    keep[j] False where d_b(X[j], X[i]) < tol and keep[i] still holds.
    Every d_b comes from one stacked group_distance call, the later sample
    first."""
    if not J.size:
        return
    close = ortho.group_distance(X[J], X[I]) < tol
    for j, i in zip(J[close].tolist(), I[close].tolist()):
        if keep[i]:
            keep[j] = False


def _dedup(samples, tol=1e-6):
    """Greedy by loop length: samples sorted stably by loop length, a
    sample is dropped iff d_b < tol to an earlier kept one.

    Three stacked steps.  One `check_orthogonal` validates every sample.
    A Gram screen then finds the candidate pairs: by
    `ortho.frobenius_lower_bound`, d_b(A, B) < tol needs ||A - B||_F <
    reach = (tol + 10 n ORTH_TOL)(1 + FROBENIUS_SLACK).  The screen
    computes ||A - B||_F^2 as |A|^2 + |B|^2 - 2 <A, B>, three dot products
    of n^2 terms each bounded by 1 in size (entries of orthogonal
    matrices), so each is off by at most n^2 u |A| |B| ~ n^3 u (u = 2^-53
    the unit roundoff; Higham, Accuracy and Stability, 2002, sec. 3.1),
    and the sum by about 4 n^3 u plus two rounded additions.  That is
    below 1e-12 = SCREEN_MARGIN for n <= 13; the screen keeps every pair
    below reach^2 + SCREEN_MARGIN, so no pair with d_b < tol escapes it.
    Each block of rows meets only the rows before its end (`_near`).
    Last, a stacked `group_distance` call takes the exact d_b of the
    candidates (`_drop_close`), and a greedy pass over the close pairs, in
    order of the later sample, decides the drops.  So the exact d_b still
    decides every drop, and the result is that of the quadratic greedy.

    The candidates wait for their d_b until they fill one distance call of
    SCREEN_ENTRIES entries per side, or until a block screens more pairs
    than it has rows, so a sparse screen makes one call (a word closure of
    length 2 does).  A cluster of samples within reach of each other, such
    as the identities of a flat metric, has quadratically many pairs:
    there each block ends a call, the call decides every sample screened
    so far, and later blocks meet only the decided samples that were kept,
    one matmul each, and the undecided ones.  Blocks of at most
    sqrt(pairs per call) rows keep one block's pairs within a call's
    size."""
    ordered = sorted(samples, key=lambda s: s.loop_length)
    if not ordered:
        return []
    X = ortho.check_orthogonal(np.array([s.element for s in ordered]))
    K, n = len(X), X.shape[-1]
    F = X.reshape(K, n * n)
    sq = np.einsum("ij,ij->i", F, F)
    reach = (tol + 10.0 * n * ortho.ORTH_TOL) * (1.0 + ortho.FROBENIUS_SLACK)
    bound = reach * reach + SCREEN_MARGIN
    per_call = max(1, SCREEN_ENTRIES // (n * n))
    rows = max(1, min(SCREEN_ENTRIES // K, math.isqrt(per_call)))
    keep = np.ones(K, dtype=bool)
    decided = 0                             # keep[:decided] is final
    kept = np.zeros(0, dtype=int)           # its kept samples
    J, I, pending = [], [], 0
    for a in range(0, K, rows):
        b = min(a + rows, K)
        # pairs with a kept decided sample, then with an earlier undecided one
        block = slice(a, b)
        jk, ik = np.nonzero(_near(F, sq, block, kept, bound))
        ju, iu = np.nonzero(np.tril(_near(F, sq, block, slice(decided, b), bound), a - decided - 1))
        J += [jk + a, ju + a]
        I += [kept[ik], iu + decided]
        pending += len(jk) + len(ju)
        if pending >= per_call or len(jk) + len(ju) > b - a or b == K:
            _drop_close(X, np.concatenate(J), np.concatenate(I), keep, tol)
            kept = np.concatenate([kept, decided + np.flatnonzero(keep[decided:b])])
            decided, J, I, pending = b, [], [], 0
    return [s for s, k in zip(ordered, keep) if k]


def holonomy_samples(conn: MetricSpec, loops, length_metric: MetricSpec = None,
                     word_length=1):
    """Holonomy elements of the given loops (all sharing one basepoint),
    closed under products up to `word_length` letters and inverses, with
    exact additive length accounting.  Deduplicated with d_b < 1e-6 (see
    `_dedup`), keeping the smaller length.  Each round extends the
    deduplicated frontier of the round before; the last round's frontier
    is not deduplicated, since nothing reads it.
    """
    if word_length < 1:
        raise ValueError(f"word length must be at least 1, got {word_length}")
    g = length_metric or conn
    base = [HolonomySample(np.eye(conn.dim), 0.0, "constant")]
    for loop in loops:
        h = holonomy_element(conn, loop)
        length = loop.compute_length(g)
        base.append(HolonomySample(h, length, loop.descriptor))
        base.append(HolonomySample(h.T, length, loop.descriptor + "^-1"))
    if word_length == 1:
        return _dedup(base)
    words = list(base)
    frontier = list(base)
    for r in range(1, word_length):
        nxt = []
        for w in frontier:
            for s in base[1:]:
                # gamma_w then gamma_s: transport composes as h_s h_w
                nxt.append(HolonomySample(s.element @ w.element,
                                          w.loop_length + s.loop_length,
                                          f"{w.descriptor}*{s.descriptor}"))
        words.extend(nxt)
        if r + 1 < word_length:
            frontier = _dedup(nxt)
        # a greedy pass over its own output keeps every element, so the
        # final `words` needs no further pass
        words = _dedup(words)
    return words


def circle_power_samples(conn: MetricSpec, basepoint, axis, period,
                         length_metric=None, max_power=50):
    """Powers of one periodic-coordinate circle, swept backwards: transport
    once, then take matrix powers with additive lengths (holonomy of the
    k-fold loop)."""
    g = length_metric or conn
    loop = coordinate_circle_loop(basepoint, axis, period, orientation=-1)
    h = holonomy_element(conn, loop)
    L1 = loop.compute_length(g)
    out = [HolonomySample(np.eye(conn.dim), 0.0, "constant")]
    P = np.eye(conn.dim)
    for k in range(1, max_power + 1):
        P = h @ P
        out.append(HolonomySample(P.copy(), k * L1, f"circle^{k}"))
        out.append(HolonomySample(P.T.copy(), k * L1, f"circle^-{k}"))
    return _dedup(out)


def fiber_distance(samples, e, e_prime):
    """min over samples a of sqrt(L(a)^2 + d_b(a e, e')^2): the restricted
    distance on a fiber, certified as an upper bound.  The constant loop is
    always included, so the value never exceeds d_b(e, e').

    e' is one frame (n, n), which gives a float, or a stack (K, n, n),
    which gives (K,).  Every moved frame a e, the constant loop's e first,
    meets every target in one stacked group_distance call."""
    e = ortho.check_orthogonal(np.asarray(e, dtype=float))
    n = e.shape[0]
    moved = np.concatenate([e[None], np.reshape([s.element for s in samples], (-1, n, n)) @ e])
    lengths = np.array([0.0] + [s.loop_length for s in samples])
    d = ortho.group_distance(moved, np.asarray(e_prime, dtype=float)[..., None, :, :])
    best = np.hypot(lengths, d).min(axis=-1)     # hypot(L, inf) = inf
    return float(best) if best.ndim == 0 else best


# ---------------------------------------------------------------------------
# loop generators

def coordinate_triangle_loops(basepoint, scale, count, rng, dim):
    """Closed triangles with straight coordinate sides near the basepoint."""
    p = np.asarray(basepoint, dtype=float)
    loops = []
    for k in range(count):
        a = p + scale * rng.uniform(-1, 1, size=dim)
        b = p + scale * rng.uniform(-1, 1, size=dim)
        loops.append(polyline_loop([p, a, b, p], f"tri#{k}"))
    return loops


def plaquette_loops(basepoint, delta, dim):
    """One plaquette per coordinate plane (i, j), i < j, lexicographic."""
    return [plaquette_loop(basepoint, i, j, delta)
            for i in range(dim) for j in range(i + 1, dim)]


# ---------------------------------------------------------------------------
# infinitesimal holonomy along a family of scales

@dataclass
class H0FamilyMember:
    scale: float
    samples: list               # HolonomySample list, the constant loop included


@dataclass
class H0Report:
    estimate: ortho.SubgroupEstimate
    per_scale: list             # (scale, label, kept sample count, threshold)
    stabilized: bool


def estimate_H0(members) -> H0Report:
    """Estimate the infinitesimal holonomy group from a ladder of scales.

    Keeps only samples whose loop length is at most 3 sqrt(r), r the ratio
    of the smaller to the larger of the scale and the first rung's, and
    reports whether the classification label stabilizes over the last
    three rungs.
    """
    s0 = members[0].scale
    per_scale = []
    kept_all = []
    for mem in members:
        ratio = s0 / mem.scale if mem.scale >= s0 else mem.scale / s0
        cut = math.sqrt(ratio) * 3.0
        kept = [s for s in mem.samples if s.loop_length <= cut]
        if not kept:
            kept = [HolonomySample(np.eye(len(mem.samples[0].element)), 0.0, "constant")]
        est = ortho.classify_subgroup([s.element for s in kept])
        per_scale.append((mem.scale, est.label, len(kept), cut))
        kept_all = kept
    labels = [row[1] for row in per_scale]
    stabilized = len(labels) >= 3 and len(set(labels[-3:])) == 1
    final = ortho.classify_subgroup([s.element for s in kept_all])
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
    """Samples written by samples_to_jsonl; a malformed line, or one with a
    NaN or infinite number, raises ValueError."""
    import json
    out = []
    for k, line in enumerate(text.strip().splitlines(), 1):
        try:
            obj = json.loads(line)
            mat = np.array(obj["matrix"], dtype=float).reshape(n, n)
            length = float(obj["length"])
            if not (np.isfinite(mat).all() and math.isfinite(length)):
                raise ValueError("entry not finite")
            out.append(HolonomySample(mat, length, obj.get("loop", "")))
        except (KeyError, TypeError, AttributeError, ValueError) as err:
            raise ValueError(f"bad holonomy sample on line {k}: {err!r}") from None
    return out
