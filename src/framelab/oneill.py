"""Curvature of the lifted metric through submersion formulas.

Everything here is assembled at a frame point from exact base-level data:
the curvature and curvature gradient of the connection metric, the Ricci
tensor of the base metric, and the difference of the two Levi-Civita
connections.  The independent cross-check (`ricci_direct`) computes the
same numbers by finite-differencing the lifted coordinate metric, within
the chart's total dimension budget (`bundle.DIMENSION_BUDGET` = 10, so
n <= 4).

Four-index curvature values follow the pairing R4(a, b, c, d) =
<R(a, b) c, d>, under which the A-tensor of the submersion has vertical
components

    gt(A_X Y, That_lm) = (1/sqrt 2) R4_eps(x, y, e_lam, e_mu)

on the b-orthonormalized fundamental frame That_lm = T_lm / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ortho
from .bundle import FramePoint, LiftedMetricChart
from .curvature import (CurvatureGradient, CurvatureTensor, DomainExitError, _item,
                        coordinate_plane_sup, curvature_gradient, pairing, riemann,
                        tensor_norm)
from .expr import ExprEvalError
from .holonomy import cholesky_section
from .metric import MetricError, MetricSpec

#: sign of the HHHV cross term, pinned by the direct/formula agreement on
#: the smoothed-cone pair (n = 2) and by the whole-matrix finite-difference
#: checks of n = 3 and n = 4 pairs with g != g' (test_ricci_matrix_matches_fd_oracle)
CROSS_TERM_SIGN = -1.0
#: most Hessian-stencil rows, 1 + 4 N^2 per context on a chart of dimension
#: N, that one `ricci_direct` group sends to `metric_matrix`
DIRECT_ROWS = 2048


#: how building the jets of a context fails at a bad base point
_CONTEXT_ERRORS = (DomainExitError, ExprEvalError, MetricError, np.linalg.LinAlgError)


@dataclass
class ONeillContext:
    """The submersion data of g and g' over the frame point fp: at its base
    point (n,), or at each row of a stacked base (B, n) under the one
    anchor frame fp.frame.  A stacked context's arrays carry the stack axis
    first: the jets are one stacked `riemann` of g and one stacked
    `curvature_gradient` of g', and the einsums and products below
    broadcast the point ones over the stack, so each row is bitwise the
    context at that point alone, whose jets are a one-row stack (see
    `expr.compile_exprs`)."""
    g: MetricSpec
    gp: MetricSpec
    fp: FramePoint
    chart: LiftedMetricChart = field(init=False)

    def __post_init__(self):
        self.n = self.g.dim
        self.m = self.n * (self.n - 1) // 2
        self.chart = LiftedMetricChart(self.g, self.gp, self.fp)
        self.jet_g, self.grad_gp = _jets(self.g, self.gp, self.fp.base)
        self.G = self.jet_g.G
        # g-orthonormal horizontal projections f_i and the g'-orthonormal
        # frame e (the chart's frame at fiber coordinates t = 0)
        self.f = cholesky_section(self.G)
        self.e = cholesky_section(self.grad_gp.G) @ self.fp.frame
        self.ric_g = self.jet_g.ricci()
        self.rlow_eps = self.grad_gp.rlow
        self.nabla_r_eps = self.grad_gp.nabla(self.jet_g.gamma)
        # D^k_ij = Gamma^k_ij - Gamma_eps^k_ij
        self.D = self.jet_g.gamma - self.grad_gp.gamma
        # frame table R4[i, j, lam, mu] = <R_eps(f_i, f_j) e_lam, e_mu>, from
        # four pairwise contractions: f^T R f over (a, b) for each (k, l),
        # then e^T (.)^T e over (k, l) for each (i, j)
        f = self.f[..., None, None, :, :]
        e = self.e[..., None, None, :, :]
        Q = np.swapaxes(f, -1, -2) @ np.moveaxis(self.rlow_eps, (-4, -3), (-2, -1)) @ f
        Q = np.moveaxis(Q, (-2, -1), (-4, -3))                  # Q[..., i, j, k, l]
        self.r4_frame = np.swapaxes(e, -1, -2) @ np.swapaxes(Q, -1, -2) @ e


def _jets(g, gp, p):
    """The Riemann jet of g and the curvature-gradient jet of g' at p (n,)
    or at the rows of p (B, n).  When a stack fails, its points are taken
    one by one, g before g' at each, so that the error raised is the one
    of the first bad point, as at single points."""
    try:
        return riemann(g, p), curvature_gradient(gp, p)
    except _CONTEXT_ERRORS:
        if p.ndim == 2:
            for q in p:
                riemann(g, q)
                curvature_gradient(gp, q)
        raise


def _check_horizontal(name, vec, n, lead):
    """A base tangent vector (n,) or a stack of them (k, n), after `lead`
    stack axes of the context."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim - lead not in (1, 2) or vec.shape[-1] != n:
        raise ValueError(
            f"{name} must be a base tangent vector of dimension {n} or a stack of them")
    return vec


def covariant_a_horizontal(ctx: ONeillContext, z, x, y):
    """That-components of (nabla~_Z A)_X Y for horizontal lifts: the skew
    matrix with entries (1/sqrt2) [ (nabla R_eps)(z, x, y, e_l, e_m)
    + R_eps(x, y, (nabla - nabla_eps)(z, e_l), e_m)
    + R_eps(x, y, e_l, (nabla - nabla_eps)(z, e_m)) ].  z, x and y may be
    stacks (k, n) of triples, giving one (k, n, n) stack in one evaluation;
    at a stacked context of B rows they are (B, n) or (B, k, n)."""
    lead = ctx.G.shape[:-2]
    z = _check_horizontal("z", z, ctx.n, len(lead))
    x = _check_horizontal("x", x, ctx.n, len(lead))
    y = _check_horizontal("y", y, ctx.n, len(lead))
    # the context's arrays with an axis for the triples, if they have one
    triples = (1,) * (z.ndim - 1 - len(lead))

    def per(T):
        return T.reshape(lead + triples + T.shape[len(lead):])

    e = per(ctx.e)
    # the coordinate components of (nabla_z R_eps)(x, y, ., .) and R_eps(x, y, ., .)
    nab = np.einsum("...mabkl,...m,...a,...b->...kl", per(ctx.nabla_r_eps), z, x, y)
    rxy = np.einsum("...abkl,...a,...b->...kl", per(ctx.rlow_eps), x, y)
    # De[..., :, lam] = (nabla - nabla_eps)(z, e_lam)
    De = np.einsum("...kij,...i,...jl->...kl", per(ctx.D), z, e)
    # M[mu, lam] = R4'(x, y, e_lam, e_mu) + R4(x, y, De_lam, e_mu) + R4(x, y, e_lam, De_mu),
    # with R4' the pairing of nabla_z R_eps
    eT = np.swapaxes(e, -1, -2)
    M = eT @ nab @ e + eT @ rxy @ De + np.swapaxes(De, -1, -2) @ rxy @ e
    return np.swapaxes(M, -1, -2) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the Ricci decomposition

@dataclass
class RicciReport:
    ricci_formula: float
    terms: dict                 # submersion term name -> its value


def normalize_direction(ctx: ONeillContext, v_base, xi):
    """Scale (v, xi) to a gt-unit direction; returns (v, xi, norm).  v (n,)
    and xi (n, n), either of which may be None, are one direction; stacks
    (B, n) and (B, n, n) are one direction per row of a stacked context, or
    B directions at a point context, each scaled on its own."""
    v = np.zeros(ctx.n) if v_base is None else np.asarray(v_base, dtype=float)
    xi = np.zeros((ctx.n, ctx.n)) if xi is None else ortho.check_skew(xi)
    # |v|_g^2 + b(xi, xi), b(xi, xi) = -trace(xi xi); the shapes broadcast
    norm2 = _quadratic(ctx.G, v) - np.trace(xi @ xi, axis1=-2, axis2=-1)
    if np.any(norm2 <= 0):
        raise ValueError("zero direction")
    norm = np.sqrt(norm2)
    s = 1.0 / norm
    return v * s[..., None], xi * s[..., None, None], _item(norm)


def _ricci_blocks(ctx: ONeillContext) -> dict:
    """The four submersion terms of Ric~ as symmetric (n+m) x (n+m) matrices
    in the gt-orthonormal frame: horizontal (f_i, 0), then vertical
    (0, E_lm / sqrt 2) in `skew_pairs` order.

    With R = r4_frame and K_ik = sum R_ijvu R_kjvu, HH is f^T Ric_g f - 3K/4;
    HV_mixed is K/4 on the horizontal block and P^T P / 4 on the vertical
    one, P[ij, lm] = (R_ijlm - R_ijml) / sqrt 2; VV is (n - 2)/4 I, the
    Ricci of (O(n), b); the HHHV cross term pairs the horizontal and
    vertical blocks through sum_i (nabla~_{f_i} A)_{f_k} f_i.
    """
    n, m = ctx.n, ctx.m
    lead = ctx.G.shape[:-2]
    lam, mu = ortho.skew_index(n)
    R = ctx.r4_frame
    Rh = R.reshape(lead + (n, -1))
    K = Rh @ np.swapaxes(Rh, -1, -2)
    P = (R[..., lam, mu] - R[..., mu, lam]).reshape(lead + (n * n, m)) / math.sqrt(2.0)
    # V[k] = sum_i (nabla~_{f_i} A)_{f_k} f_i, all n^2 triples (i, k) at once
    i, k = np.divmod(np.arange(n * n), n)
    F = np.swapaxes(ctx.f, -1, -2)
    V = covariant_a_horizontal(ctx, F[..., i, :], F[..., k, :], F[..., i, :])
    V = V.reshape(lead + (n, n, n, n)).sum(axis=len(lead))
    X = CROSS_TERM_SIGN * (V[..., lam, mu] - V[..., mu, lam])

    def block(hh=0.0, hv=0.0, vv=0.0):
        Q = np.zeros(lead + (n + m, n + m))
        Q[..., :n, :n] = hh
        Q[..., :n, n:] = hv
        Q[..., n:, n:] = vv
        return 0.5 * (Q + np.swapaxes(Q, -1, -2))

    fT = np.swapaxes(ctx.f, -1, -2)
    return {"HH": block(hh=fT @ ctx.ric_g @ ctx.f - 0.75 * K),
            "HV_mixed": block(hh=0.25 * K, vv=0.25 * (np.swapaxes(P, -1, -2) @ P)),
            "VV": block(vv=0.25 * (n - 2) * np.eye(m)),
            "HHHV_cross": block(hv=X)}


def _quadratic(Q, c):
    """c^T Q c per row, broadcast over leading stack axes."""
    return (c[..., None, :] @ Q @ c[..., :, None])[..., 0, 0]


def ricci_oneill(ctx: ONeillContext, v_base=None, xi=None) -> RicciReport:
    """Ricci of the lifted metric in the direction with horizontal part
    pi_* = v_base and connection form xi: each submersion term is c^T Q c
    for the block Q of `_ricci_blocks` and the frame components c of the
    normalized direction.  At a stacked context, v_base (B, n) and xi
    (B, n, n) give one direction per row, and the report holds (B,)
    arrays."""
    x, xi, _ = normalize_direction(ctx, v_base, xi)
    c = np.concatenate([np.linalg.solve(ctx.f, x[..., None])[..., 0], ortho.vec_skew(xi)],
                       axis=-1)
    terms = {name: _item(_quadratic(Q, c)) for name, Q in _ricci_blocks(ctx).items()}
    return RicciReport(sum(terms.values()), terms)


def ricci_matrix(ctx: ONeillContext) -> np.ndarray:
    """Symmetric matrix of Ric~ in the gt-orthonormal frame, the sum of the
    submersion blocks of `_ricci_blocks`."""
    return sum(_ricci_blocks(ctx).values())


def chart_direction(ctx: ONeillContext, v_base, xi):
    """Chart components of the tangent with pi_* = v and omega = xi."""
    return ctx.chart.lift(ctx.chart.chart_point(), v_base, xi)


def ricci_direct(ctx: ONeillContext, V, XI) -> np.ndarray:
    """Ricci of the lifted coordinate metric by finite differences at the
    context's frame points, contracted against one direction (v_base, xi)
    per row from the sequences V and XI, whose entries may be None; one
    float per direction.  A point context takes any number of directions,
    all at its frame point.

    One chart, `ctx.chart`, serves every row (its metric reads only the
    anchor frame; a base point enters only through `chart_point`), so the
    values, gradient stencils and Hessian stencils of a group of rows are
    three stacked `metric_matrix` calls, and the chart directions of all of
    them one stacked `lift`.  The groups are consecutive, each with as many
    rows as fit their Hessian stencils in DIRECT_ROWS rows (one at least),
    so the stencils' memory does not grow with the number of rows.  Each
    value is bitwise the one of a single-direction call at a context of
    that point alone, as far as the two contexts' G agree."""
    n = ctx.n
    V = np.stack([np.zeros(n) if v is None else np.asarray(v, dtype=float) for v in V])
    XI = np.stack([np.zeros((n, n)) if a is None else np.asarray(a, dtype=float) for a in XI])
    x, xi, _ = normalize_direction(ctx, V, XI)
    chart = ctx.chart
    Y = chart.chart_point().reshape(-1, chart.dim)
    if len(Y) != len(x):
        Y = np.repeat(Y, len(x), axis=0)
    per = max(1, DIRECT_ROWS // (1 + 4 * chart.dim ** 2))
    numeric = chart.numeric()
    ric = np.concatenate([numeric.ricci(Y[i:i + per]) for i in range(0, len(Y), per)])
    C = chart.lift(Y, x, xi)
    return np.array([c @ r @ c for c, r in zip(C, ric)])


def riemann_direct_4(ctx: ONeillContext, dir_tuples):
    """<R~(U1, U2) U3, U4> by finite differences for chart directions given
    as (v_base, xi) pairs (not normalized)."""
    rlow = ctx.chart.numeric().riemann(ctx.chart.chart_point()).rlow
    vecs = [chart_direction(ctx, v, xi) for v, xi in dir_tuples]
    return pairing(rlow, *vecs)


def covariant_a_vertical_residual(ctx: ONeillContext, xi, x):
    """|gt((nabla~_T A)_X X, T)| via the HVHV identity evaluated directly:
    residual = |<R~(X, T) X, T>_direct + |A_X T|^2_formula|."""
    x = _check_horizontal("x", x, ctx.n, 0)
    xi = ortho.check_skew(xi)
    direct = riemann_direct_4(ctx, [(x, None), (None, xi), (x, None), (None, xi)])
    inner = np.einsum("ijvu,vu->ij", ctx.r4_frame, xi)
    # gt(A_X That, A_X That) summed over the horizontal frame
    xf = np.linalg.solve(ctx.f, x)  # x in the f-frame
    a_inner = 0.0
    for j in range(ctx.n):
        w = float(xf @ inner[:, j])
        a_inner += 0.25 * w * w
    return abs(direct + a_inner), direct, a_inner


# ---------------------------------------------------------------------------
# hypothesis measurements and bound reports

def hypothesis_measurements(jet_g: CurvatureTensor, grad_gp: CurvatureGradient):
    """Pointwise versions of the four hypothesis quantities, read from the
    Riemann jet of g and the curvature-gradient jet of g' at one point
    (floats), or at a stack of points ((B,) arrays)."""
    G, Gp = jet_g.G, grad_gp.G
    return {"eps_hat": tensor_norm(G - Gp, G, "ll"),
            "delta_hat": tensor_norm(jet_g.gamma - grad_gp.gamma, G, "ull"),
            "k_hat": coordinate_plane_sup(Gp, grad_gp.rlow),
            "K_hat": tensor_norm(grad_gp.nabla_r, Gp, "lllll"),
            "riemann_norm": tensor_norm(grad_gp.rlow, Gp, "llll")}


@dataclass
class BoundReport:
    hypothesis_sup: dict
    sup_ricci: float
    samples: int
    per_sample: list
    flags: list = field(default_factory=list)

    def to_json_obj(self):
        return {"hypothesis_sup": self.hypothesis_sup, "sup_ricci": self.sup_ricci,
                "samples": self.samples, "flags": self.flags}

    def to_csv(self):
        lines = ["point,sup_ricci"]
        for row in self.per_sample:
            pt = " ".join(repr(v) for v in row["point"])
            lines.append(f"{pt},{row['sup_ricci']!r}")
        return "\n".join(lines) + "\n"


def ricci_bound_report(g: MetricSpec, gp: MetricSpec, points) -> BoundReport:
    """Measure the hypothesis numbers and sup |Ric~| over sample frame
    points (B, n), from one stacked context.  At each point sup |Ric~| over
    gt-unit directions is the spectral radius of `ricci_matrix`, so it is
    exact per point, and enlarging the sample set only grows the measured
    supremum."""
    points = np.asarray(points, dtype=float).reshape(-1, g.dim)
    ctx = ONeillContext(g, gp, FramePoint.anchor(points, g.dim))
    h = hypothesis_measurements(ctx.jet_g, ctx.grad_gp)
    worst = np.abs(np.linalg.eigvalsh(ricci_matrix(ctx))).max(axis=-1).tolist()
    # max over the points in order, as a running max(sup, value) takes it
    sup = {k: max([0.0, *v.tolist()]) for k, v in h.items()}
    per_sample = [{"point": p, "sup_ricci": w} for p, w in zip(points.tolist(), worst)]
    flags = []
    if sup["k_hat"] > 1e6 or sup["K_hat"] > 1e6:
        flags.append("hypothesis blow-up: k_hat or K_hat exceeds 1e6")
    return BoundReport(sup, max([0.0, *worst]), len(per_sample), per_sample, flags)
