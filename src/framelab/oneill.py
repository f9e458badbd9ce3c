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
from .curvature import (CurvatureGradient, CurvatureTensor, coordinate_plane_sup,
                        curvature_gradient, pairing, riemann, tensor_norm)
from .holonomy import cholesky_section
from .metric import MetricSpec

#: sign of the HHHV cross term, pinned by the direct/formula agreement on
#: the smoothed-cone pair (n = 2) and by the whole-matrix finite-difference
#: checks of n = 3 and n = 4 pairs with g != g' (test_ricci_matrix_matches_fd_oracle)
CROSS_TERM_SIGN = -1.0
#: most Hessian-stencil rows, 1 + 4 N^2 per context on a chart of dimension
#: N, that one `ricci_direct` group sends to `metric_matrix`
DIRECT_ROWS = 2048


@dataclass
class ONeillContext:
    g: MetricSpec
    gp: MetricSpec
    fp: FramePoint
    chart: LiftedMetricChart = field(init=False)

    def __post_init__(self):
        p = self.fp.base
        self.n = self.g.dim
        self.m = self.n * (self.n - 1) // 2
        self.chart = LiftedMetricChart(self.g, self.gp, self.fp)
        # the one Riemann jet of g and curvature-gradient jet of g' at p
        self.jet_g = riemann(self.g, p)
        self.grad_gp = curvature_gradient(self.gp, p)
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
        # frame table R4[i, j, lam, mu] = <R_eps(f_i, f_j) e_lam, e_mu>
        self.r4_frame = np.einsum("abkl,ai,bj,ku,lv->ijvu",
                                  self.rlow_eps, self.f, self.f, self.e, self.e)


def _check_horizontal(name, vec, n):
    """A base tangent vector (n,) or a stack of them (k, n)."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != n:
        raise ValueError(
            f"{name} must be a base tangent vector of dimension {n} or a stack of them")
    return vec


def covariant_a_horizontal(ctx: ONeillContext, z, x, y):
    """That-components of (nabla~_Z A)_X Y for horizontal lifts: the skew
    matrix with entries (1/sqrt2) [ (nabla R_eps)(z, x, y, e_l, e_m)
    + R_eps(x, y, (nabla - nabla_eps)(z, e_l), e_m)
    + R_eps(x, y, e_l, (nabla - nabla_eps)(z, e_m)) ].  z, x and y may be
    stacks (k, n) of triples, giving one (k, n, n) stack in one evaluation."""
    z = _check_horizontal("z", z, ctx.n)
    x = _check_horizontal("x", x, ctx.n)
    y = _check_horizontal("y", y, ctx.n)
    e = ctx.e
    # the coordinate components of (nabla_z R_eps)(x, y, ., .) and R_eps(x, y, ., .)
    nab = np.einsum("mabkl,...m,...a,...b->...kl", ctx.nabla_r_eps, z, x, y)
    rxy = np.einsum("abkl,...a,...b->...kl", ctx.rlow_eps, x, y)
    # De[..., :, lam] = (nabla - nabla_eps)(z, e_lam)
    De = np.einsum("kij,...i,jl->...kl", ctx.D, z, e)
    # M[mu, lam] = R4'(x, y, e_lam, e_mu) + R4(x, y, De_lam, e_mu) + R4(x, y, e_lam, De_mu),
    # with R4' the pairing of nabla_z R_eps
    M = e.T @ nab @ e + e.T @ rxy @ De + np.swapaxes(De, -1, -2) @ rxy @ e
    return np.swapaxes(M, -1, -2) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the Ricci decomposition

@dataclass
class RicciReport:
    ricci_formula: float
    terms: dict                 # submersion term name -> its value


def normalize_direction(ctx: ONeillContext, v_base, xi):
    """Scale (v, xi) to a gt-unit direction; returns (v, xi, norm)."""
    v = np.zeros(ctx.n) if v_base is None else np.asarray(v_base, dtype=float)
    xi = np.zeros((ctx.n, ctx.n)) if xi is None else ortho.check_skew(xi)
    norm2 = float(v @ ctx.G @ v) + ortho.biinvariant_inner(xi, xi)
    if norm2 <= 0:
        raise ValueError("zero direction")
    s = 1.0 / math.sqrt(norm2)
    return v * s, xi * s, math.sqrt(norm2)


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
    lam, mu = ortho.skew_index(n)
    R = ctx.r4_frame
    Rh = R.reshape(n, -1)
    K = Rh @ Rh.T
    P = (R[:, :, lam, mu] - R[:, :, mu, lam]).reshape(n * n, m) / math.sqrt(2.0)
    # V[k] = sum_i (nabla~_{f_i} A)_{f_k} f_i, all n^2 triples (i, k) at once
    i, k = np.divmod(np.arange(n * n), n)
    F = ctx.f.T
    V = covariant_a_horizontal(ctx, F[i], F[k], F[i]).reshape(n, n, n, n).sum(axis=0)
    X = CROSS_TERM_SIGN * (V[:, lam, mu] - V[:, mu, lam])

    def block(hh=0.0, hv=0.0, vv=0.0):
        Q = np.zeros((n + m, n + m))
        Q[:n, :n] = hh
        Q[:n, n:] = hv
        Q[n:, n:] = vv
        return 0.5 * (Q + Q.T)

    return {"HH": block(hh=ctx.f.T @ ctx.ric_g @ ctx.f - 0.75 * K),
            "HV_mixed": block(hh=0.25 * K, vv=0.25 * (P.T @ P)),
            "VV": block(vv=0.25 * (n - 2) * np.eye(m)),
            "HHHV_cross": block(hv=X)}


def ricci_oneill(ctx: ONeillContext, v_base=None, xi=None) -> RicciReport:
    """Ricci of the lifted metric in the direction with horizontal part
    pi_* = v_base and connection form xi: each submersion term is c^T Q c
    for the block Q of `_ricci_blocks` and the frame components c of the
    normalized direction."""
    x, xi, _ = normalize_direction(ctx, v_base, xi)
    c = np.concatenate([np.linalg.solve(ctx.f, x), ortho.vec_skew(xi)])
    terms = {name: float(c @ Q @ c) for name, Q in _ricci_blocks(ctx).items()}
    return RicciReport(sum(terms.values()), terms)


def ricci_matrix(ctx: ONeillContext) -> np.ndarray:
    """Symmetric matrix of Ric~ in the gt-orthonormal frame, the sum of the
    submersion blocks of `_ricci_blocks`."""
    return sum(_ricci_blocks(ctx).values())


def chart_direction(ctx: ONeillContext, v_base, xi):
    """Chart components of the tangent with pi_* = v and omega = xi."""
    return ctx.chart.lift(ctx.chart.chart_point(), v_base, xi)


def ricci_direct(ctxs, V, XI) -> np.ndarray:
    """Ricci of the lifted coordinate metric by finite differences at each
    context's frame point, contracted against that context's direction
    (v_base, xi) from V and XI, either of which may be None; one float per
    context.

    The contexts must share g, g' and the anchor frame.  Then one chart,
    `ctxs[0].chart`, serves them all (its metric reads only the anchor
    frame; a base point enters only through `chart_point`), so the values,
    gradient stencils and Hessian stencils of a group of contexts are three
    stacked `metric_matrix` calls, and the chart directions of all of them
    one stacked `lift`.  The groups are consecutive, each with as many
    contexts as fit their Hessian stencils in DIRECT_ROWS rows (one at
    least), so the stencils' memory does not grow with the number of
    contexts.  Each value is bitwise the one of a single-context call."""
    chart = ctxs[0].chart
    if any(ctx.g is not chart.g or ctx.gp is not chart.gp
           or not np.array_equal(ctx.fp.frame, chart.anchor.frame) for ctx in ctxs):
        raise ValueError("ricci_direct needs contexts that share g, g' and the anchor frame")
    dirs = [normalize_direction(ctx, v, xi) for ctx, v, xi in zip(ctxs, V, XI, strict=True)]
    Y = np.stack([ctx.chart.chart_point() for ctx in ctxs])
    per = max(1, DIRECT_ROWS // (1 + 4 * chart.dim ** 2))
    numeric = chart.numeric()
    ric = np.concatenate([numeric.ricci(Y[i:i + per]) for i in range(0, len(Y), per)])
    C = chart.lift(Y, np.stack([x for x, _, _ in dirs]), np.stack([xi for _, xi, _ in dirs]))
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
    x = _check_horizontal("x", x, ctx.n)
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
    Riemann jet of g and the curvature-gradient jet of g' at one point."""
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
    points.  At each point sup |Ric~| over gt-unit directions is the
    spectral radius of `ricci_matrix`, so it is exact per point, and
    enlarging the sample set only grows the measured supremum."""
    sup = {"eps_hat": 0.0, "delta_hat": 0.0, "k_hat": 0.0, "K_hat": 0.0,
           "riemann_norm": 0.0}
    sup_ric = 0.0
    per_sample = []
    flags = []
    for p in points:
        ctx = ONeillContext(g, gp, FramePoint.anchor(p, g.dim))
        h = hypothesis_measurements(ctx.jet_g, ctx.grad_gp)
        for k in sup:
            sup[k] = max(sup[k], h[k])
        worst = float(np.abs(np.linalg.eigvalsh(ricci_matrix(ctx))).max())
        sup_ric = max(sup_ric, worst)
        per_sample.append({"point": list(map(float, p)), "sup_ricci": worst})
    if sup["k_hat"] > 1e6 or sup["K_hat"] > 1e6:
        flags.append("hypothesis blow-up: k_hat or K_hat exceeds 1e6")
    return BoundReport(sup, sup_ric, len(per_sample), per_sample, flags)
