"""Curvature of a MetricSpec: Christoffel symbols, Riemann and Ricci
tensors, covariant derivative of curvature, tensor norms and geodesics.

Index conventions used throughout:

* ``gamma[k, i, j]`` is Christoffel ``Gamma^k_ij`` (symmetric in i, j).
* ``rup[l, i, j, k]`` is ``R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
  + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik``, i.e. the component of
  the operator R(d_i, d_j) applied to d_k.
* ``rlow[i, j, k, l] = g_km rup[m, i, j, l]``.  With this ordering the
  sectional curvature of a coordinate 2-plane is ``rlow[0,1,0,1] / det g``
  on a 2-manifold (positive for the round sphere), and the symmetries
  R_ijkl = -R_jikl = -R_ijlk = R_klij and the first Bianchi identity
  R_ijkl + R_jkil + R_kijl = 0 all hold.

The same algebra runs on two derivative sources: exact symbolic derivatives
of a MetricSpec, or Richardson-extrapolated central differences of any
pointwise metric evaluator (used for lifted metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .expr import ExprEvalError
from .metric import MetricSpec


class DomainExitError(RuntimeError):
    """A curve left the chart; `s_exit` is the first offending parameter."""

    def __init__(self, s_exit, point):
        super().__init__(f"curve leaves the chart domain at s={s_exit:.6g}")
        self.s_exit = s_exit
        self.point = np.asarray(point)


#: how an integration or a jet evaluation fails off the chart
_OFF_CHART_ERRORS = (RuntimeError, ExprEvalError, np.linalg.LinAlgError)


class ValenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# containers

@dataclass(frozen=True)
class ConnectionCoeffs:
    point: np.ndarray
    gamma: np.ndarray           # (n, n, n): gamma[k, i, j]


@dataclass(frozen=True)
class CurvatureTensor:
    """The Riemann jet of one metric at one point, with the metric matrix
    and Christoffel symbols it was assembled from."""
    point: np.ndarray
    G: np.ndarray               # (n, n): the metric matrix
    gamma: np.ndarray           # (n, n, n): gamma[k, i, j]
    rup: np.ndarray             # (n, n, n, n): rup[l, i, j, k]
    rlow: np.ndarray            # (n, n, n, n): rlow[i, j, k, l]

    def ricci(self):
        """Ricci tensor Ric_ab = rup[m, m, a, b]."""
        return np.einsum("mmab->ab", self.rup)


@dataclass(frozen=True)
class CurvatureGradient:
    """The curvature-gradient jet of one metric at one point: G, gamma and
    rlow as in `CurvatureTensor`, and the coordinate partials
    drlow[m, i, j, k, l] = d_m rlow[i, j, k, l]."""
    point: np.ndarray
    G: np.ndarray
    gamma: np.ndarray
    rlow: np.ndarray
    drlow: np.ndarray

    def nabla(self, gamma_c):
        """(nabla_m R)_ijkl of this metric's curvature, differentiated with
        the connection whose Christoffel symbols are gamma_c."""
        rlow = self.rlow
        return (self.drlow
                - np.einsum("smi,sjkl->mijkl", gamma_c, rlow)
                - np.einsum("smj,iskl->mijkl", gamma_c, rlow)
                - np.einsum("smk,ijsl->mijkl", gamma_c, rlow)
                - np.einsum("sml,ijks->mijkl", gamma_c, rlow))

    @cached_property
    def nabla_r(self):
        """nabla_r[m, i, j, k, l] = (nabla_m R)_ijkl under the metric's own
        Levi-Civita connection."""
        return self.nabla(self.gamma)


# ---------------------------------------------------------------------------
# assembly from (G, dG, d2G, d3G) arrays; dG[m] is the partial in direction m

def _ginv(G):
    return np.linalg.solve(G, np.eye(G.shape[-1]))


def assemble_gamma_jet(G, *dG):
    """Christoffel symbols and their partials from G and its first k
    partials dG = (dG, d2G, d3G)[:k], k = 1, 2 or 3.  Returns the list
    [gamma, dgamma, d2gamma][:k] with dgamma[m, k, i, j] = d_m Gamma^k_ij
    and d2gamma[m, n, k, i, j] = d_m d_n Gamma^k_ij; g^-1, A and d(g^-1)
    are computed once for all orders.  For k = 1, G and dG may carry
    leading stack axes, (..., n, n) and (..., n, n, n).
    """
    ginv = _ginv(G)
    # A[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij and its partials
    A = []
    for d in dG:
        t = np.swapaxes(d, -1, -3)      # t[..., l, i, j] = d_j g_il
        A.append(np.swapaxes(t, -1, -2) + t - d)
    out = [0.5 * np.einsum("...kl,...lij->...kij", ginv, A[0])]
    if len(dG) > 1:
        dginv = -np.einsum("ka,mab,bl->mkl", ginv, dG[0], ginv)
        out.append(0.5 * (np.einsum("mkl,lij->mkij", dginv, A[0])
                          + np.einsum("kl,mlij->mkij", ginv, A[1])))
    if len(dG) > 2:
        d2ginv = -(np.einsum("nka,mab,bl->mnkl", dginv, dG[0], ginv)
                   + np.einsum("ka,mnab,bl->mnkl", ginv, dG[1], ginv)
                   + np.einsum("ka,mab,nbl->mnkl", ginv, dG[0], dginv))
        out.append(0.5 * (np.einsum("mnkl,lij->mnkij", d2ginv, A[0])
                          + np.einsum("mkl,nlij->mnkij", dginv, A[1])
                          + np.einsum("nkl,mlij->mnkij", dginv, A[1])
                          + np.einsum("kl,mnlij->mnkij", ginv, A[2])))
    return out


def assemble_rup(gamma, dgamma):
    term = np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    return term + quad - np.einsum("lijk->ljik", quad)


def assemble_rlow(G, rup):
    return np.einsum("km,mijl->ijkl", G, rup)


def assemble_drup(gamma, dgamma, d2gamma):
    """drup[m, l, i, j, k] = d_m R^l_ijk."""
    term = (np.einsum("miljk->mlijk", d2gamma)
            - np.einsum("mjlik->mlijk", d2gamma))
    quad = (np.einsum("mlia,ajk->mlijk", dgamma, gamma)
            + np.einsum("lia,majk->mlijk", gamma, dgamma))
    return term + quad - np.einsum("mlijk->mljik", quad)


# ---------------------------------------------------------------------------
# symbolic-derivative entry points

def _derivs(m, p, order):
    """[G, dG, ..., d^order G] at p; m is a derivative source, a MetricSpec
    or a NumericMetric."""
    p = np.asarray(p, dtype=float)
    out = [m.evaluate(p)]
    for k in range(1, order + 1):
        out.append(m.derivative_fn(k)(p))
    return out


def _checked_derivs(m: MetricSpec, p, order):
    """`_derivs` of a MetricSpec at the float point p, after the domain
    check, with G from the SPD check."""
    if not m.in_domain(p):
        raise DomainExitError(0.0, p)
    return [m.check_spd(p)] + [m.derivative_fn(k)(p) for k in range(1, order + 1)]


def _curvature_tensor(p, G, dG, d2G):
    gamma, dgamma = assemble_gamma_jet(G, dG, d2G)
    rup = assemble_rup(gamma, dgamma)
    return CurvatureTensor(p, G, gamma, rup, assemble_rlow(G, rup))


def christoffel(m: MetricSpec, p) -> ConnectionCoeffs:
    p = np.asarray(p, dtype=float)
    return ConnectionCoeffs(p, assemble_gamma_jet(*_checked_derivs(m, p, 1))[0])


def riemann(m: MetricSpec, p) -> CurvatureTensor:
    """The Riemann jet of m at p: G, Gamma, rup and rlow from one
    evaluation of G, dG and d2G."""
    p = np.asarray(p, dtype=float)
    return _curvature_tensor(p, *_checked_derivs(m, p, 2))


def ricci(m: MetricSpec, p) -> np.ndarray:
    """Ricci tensor of m at p; equals g on the unit sphere."""
    return riemann(m, p).ricci()


def sectional(m: MetricSpec, p, u, v) -> float:
    R = riemann(m, p)
    G = R.G
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    num = pairing(R.rlow, u, v, v, u)
    uu = u @ G @ u
    vv = v @ G @ v
    uv = u @ G @ v
    den = uu * vv - uv * uv
    if den <= 0:
        raise ValueError("u, v do not span a 2-plane")
    return num / den


def pairing(rlow, a, b, c, d):
    """<R(a, b) c, d> from the rlow array."""
    return float(np.einsum("ijkl,i,j,k,l->", rlow, a, b, d, c))


def curvature_gradient(m: MetricSpec, p) -> CurvatureGradient:
    """The curvature-gradient jet of m at p, from one evaluation of G and
    its first three partials; `nabla_r` is the Levi-Civita value and
    `nabla(gamma_c)` the value under another connection."""
    p = np.asarray(p, dtype=float)
    G, dG, d2G, d3G = _checked_derivs(m, p, 3)
    gamma, dgamma, d2gamma = assemble_gamma_jet(G, dG, d2G, d3G)
    rup = assemble_rup(gamma, dgamma)
    drup = assemble_drup(gamma, dgamma, d2gamma)
    # d_m rlow_ijkl = d_m g_ka rup[a,i,j,l] + g_ka d_m rup[a,i,j,l]
    drlow = (np.einsum("mka,aijl->mijkl", dG, rup)
             + np.einsum("ka,maijl->mijkl", G, drup))
    return CurvatureGradient(p, G, gamma, assemble_rlow(G, rup), drlow)


def tensor_norm(T, G, signature) -> float:
    """Norm of a tensor under the metric matrix G: sqrt of the full
    contraction of T (x) T with G (on 'u' slots) and G^-1 (on 'l' slots).
    signature example: "ull".
    """
    T = np.asarray(T, dtype=float)
    if len(signature) != T.ndim or any(s not in "ul" for s in signature):
        raise ValenceError(f"signature {signature!r} does not match tensor of rank {T.ndim}")
    Ginv = _ginv(G)
    k = T.ndim
    a = "abcdefgh"[:k]
    b = "mnopqrst"[:k]
    mats = ",".join(f"{a[i]}{b[i]}" for i in range(k))
    sub = f"{a},{b},{mats}->"
    slots = [G if s == "u" else Ginv for s in signature]
    val = np.einsum(sub, T, T, *slots)
    return math.sqrt(max(val, 0.0))


def coordinate_plane_sup(G, rlow) -> float:
    """max |sec| over coordinate 2-planes, read from the metric G and the
    rlow array at one point."""
    n = len(G)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            den = G[i, i] * G[j, j] - G[i, j] * G[i, j]
            best = max(best, abs(float(rlow[i, j, i, j]) / den))
    return best


def sup_sectional_coordinate_planes(m: MetricSpec, p) -> float:
    """max |sec| over coordinate 2-planes at p."""
    R = riemann(m, p)
    return coordinate_plane_sup(R.G, R.rlow)


# ---------------------------------------------------------------------------
# geodesics

#: integrator tolerances (adaptive RK45)
ODE_RTOL = 1e-10
ODE_ATOL = 1e-10
DOMAIN_TOL = 1e-9


class _GammaCache:
    """Christoffel evaluation for ODE right-hand sides, without the domain
    and SPD checks of `christoffel`; m is either derivative source."""

    def __init__(self, m, variational=False):
        self.dfn = m.derivative_fn(1)
        self.d2fn = m.derivative_fn(2) if variational else None
        if isinstance(m, MetricSpec):
            # the compiled components, without evaluate's argument conversion
            fn, n = m._compiled(), m.dim
            self.gfn = lambda x: np.array(fn(x), dtype=float).reshape(n, n)
        else:
            self.gfn = m.evaluate

    def gamma(self, x):
        return assemble_gamma_jet(self.gfn(x), self.dfn(x))[0]

    def gamma_jet(self, x):
        """[Gamma, dGamma] at x, for the variational equations."""
        return assemble_gamma_jet(self.gfn(x), self.dfn(x), self.d2fn(x))


def geodesic_ivp(m: MetricSpec, p, v, t_final, dense=True, rtol=ODE_RTOL, atol=ODE_ATOL,
                 variational=False):
    """Integrate x'' + Gamma(x)(x', x') = 0; returns the scipy solution.
    m is a MetricSpec or a NumericMetric.

    With variational=True the state also carries J = dx/dv0 and K = dv/dv0
    (n x n each, row-major after x and v), started at J = 0, K = I and
    driven by the linearized equations J' = K,
    K' = -dGamma(x)[J](v, v) - 2 Gamma(x)(v, K); rtol and atol apply to
    every component.
    """
    cache = _GammaCache(m, variational)
    n = m.dim

    def rhs(t, y):
        x, vel = y[:n], y[n:]
        gamma = cache.gamma(x)
        acc = -np.einsum("kij,i,j->k", gamma, vel, vel)
        return np.concatenate([vel, acc])

    def rhs_variational(t, y):
        x, vel = y[:n], y[n:2 * n]
        J = y[2 * n:2 * n + n * n].reshape(n, n)
        K = y[2 * n + n * n:].reshape(n, n)
        gamma, dgamma = cache.gamma_jet(x)
        gv = gamma @ vel                    # gv[k, i] = Gamma^k_ij v^j
        dgvv = (dgamma @ vel) @ vel         # dgvv[m, k] = d_m Gamma^k_ij v^i v^j
        dK = -(dgvv.T @ J) - 2.0 * (gv @ K)
        return np.concatenate([vel, -(gv @ vel), K.ravel(), dK.ravel()])

    y0 = np.concatenate([np.asarray(p, dtype=float), np.asarray(v, dtype=float)])
    if variational:
        y0 = np.concatenate([y0, np.zeros(n * n), np.eye(n).ravel()])
        rhs = rhs_variational
    sol = solve_ivp(rhs, (0.0, float(t_final)), y0, method="RK45",
                    rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")
    return sol


def _first_domain_exit(m, sol, t_final, samples=200):
    ts = np.linspace(0.0, t_final, samples)
    n = m.dim
    for t in ts:
        x = sol.sol(t)[:n]
        if not m.in_domain(x, tol=DOMAIN_TOL):
            return t, x
    return None


def exp_map(m: MetricSpec, p, v, t=1.0):
    """Endpoint of the geodesic from p with initial velocity v at parameter t."""
    sol = geodesic_ivp(m, p, v, t)
    exit_info = _first_domain_exit(m, sol, t)
    if exit_info is not None:
        raise DomainExitError(exit_info[0], exit_info[1])
    return sol.y[: m.dim, -1].copy()


def geodesic_energy_drift(m: MetricSpec, sol, t_final, samples=20):
    n = m.dim
    ts = np.linspace(0.0, t_final, samples)
    vals = []
    for t in ts:
        y = sol.sol(t)
        x, vel = y[:n], y[n:]
        vals.append(float(vel @ m.evaluate(x) @ vel))
    vals = np.array(vals)
    scale = max(vals.max(), 1e-30)
    return float((vals.max() - vals.min()) / scale)


def geodesic_between(m: MetricSpec, p, q, v0=None, tol=1e-10, max_iter=12,
                     rtol=1e-10, atol=1e-10):
    """Two-point geodesic by shooting.  Returns (v, length) with exp_p(v) = q.

    Newton's method on v -> exp_p(v) - q; each step takes one integration
    of the geodesic with its variational equations, whose J(1) is the exact
    Jacobian of the endpoint map.  A shot that fails to converge, or whose
    integration fails or leaves the metric's domain of evaluation, raises
    RuntimeError.  v0 seeds the Newton iteration; the default straight-line
    velocity works whenever the chart is close to flat on the segment.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = m.dim
    v = np.array(v0, dtype=float) if v0 is not None else (q - p)

    for _ in range(max_iter):
        try:
            sol = geodesic_ivp(m, p, v, 1.0, dense=False, rtol=rtol, atol=atol,
                               variational=True)
        except (ExprEvalError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"shooting integration failed: {exc}") from exc
        end = sol.y[:, -1]
        err = end[:n] - q
        if np.linalg.norm(err) < tol:
            break
        J = end[2 * n:2 * n + n * n].reshape(n, n)
        try:
            step = np.linalg.solve(J, err)
        except np.linalg.LinAlgError:
            raise RuntimeError("shooting Jacobian singular") from None
        v = v - step
    else:
        raise RuntimeError(f"shooting failed to converge for {p} -> {q}")
    length = math.sqrt(max(float(v @ m.evaluate(p) @ v), 0.0))
    return v, length


#: 8-point Gauss-Legendre rule on [-1, 1], the panel rule of curve_length
GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def curve_length(m: MetricSpec, curve, velocity, t0=0.0, t1=1.0, samples=256):
    """Length of a parametric curve t -> coordinates under m, with exact
    velocity t -> c'(t) (composite Gauss-Legendre quadrature of |c'|_g)."""
    total = 0.0
    edges = np.linspace(t0, t1, samples // 8 + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for x, w in zip(GL8_NODES, GL8_WEIGHTS):
            t = mid + half * x
            c = np.asarray(curve(t), dtype=float)
            vel = np.asarray(velocity(t), dtype=float)
            total += w * half * math.sqrt(max(float(vel @ m.evaluate(c) @ vel), 0.0))
    return total


# ---------------------------------------------------------------------------
# finite-difference machinery for pointwise metric evaluators

#: Richardson step pairs (first and second derivatives)
FD_H1 = 1e-4
FD_H2 = 1e-5
FD_H1_SECOND = 2e-3
FD_H2_SECOND = 2e-4


def _richardson(d1, d2, h1, h2):
    """Combine difference quotients at steps h1 and h2, cancelling the h^2 term."""
    w = h1 * h1 / (h1 * h1 - h2 * h2)
    return w * d2 + (1 - w) * d1


def fd_gradient(fun, p, h1=FD_H1, h2=FD_H2):
    """Richardson-extrapolated first partials of an array-valued function.

    `fun` maps a stack of points (k, n) to the stack of its values; it is
    called once, on the whole stencil p +- h e_a for h = h1, h2.  Returns
    shape (n,) + value shape.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    rows = [p + s * h * np.eye(n) for h in (h1, h2) for s in (1.0, -1.0)]
    F = fun(np.concatenate(rows))
    F = F.reshape((4, n) + F.shape[1:])
    return _richardson((F[0] - F[1]) / (2 * h1), (F[2] - F[3]) / (2 * h2), h1, h2)


def fd_hessian(fun, p, h1=FD_H1_SECOND, h2=FD_H2_SECOND):
    """Richardson-extrapolated second partials; shape (n, n) + value shape.

    `fun` maps a stack of points to the stack of its values; it is called
    once, on p itself and the stencils of both steps: p +- h e_a for the
    diagonal and the four corners p +- h e_a +- h e_b for each a < b.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    ia, ib = np.triu_indices(n, 1)
    rows = [p[None]]
    for h in (h1, h2):
        E = h * np.eye(n)
        rows += [p + E, p - E]
        rows += [p + s * E[ia] + t * E[ib] for s in (1.0, -1.0) for t in (1.0, -1.0)]
    F = fun(np.concatenate(rows))
    f0, F = F[0], F[1:].reshape((2, -1) + F.shape[1:])
    diag, off = [], []
    for Fh, h in zip(F, (h1, h2)):
        diag.append((Fh[:n] - 2.0 * f0 + Fh[n:2 * n]) / (h * h))
        c = Fh[2 * n:].reshape((4, len(ia)) + F.shape[2:])
        off.append((c[0] - c[1] - c[2] + c[3]) / (4 * h * h))
    out = np.empty((n, n) + f0.shape)
    out[np.arange(n), np.arange(n)] = _richardson(*diag, h1, h2)
    out[ia, ib] = out[ib, ia] = _richardson(*off, h1, h2)
    return out


class NumericMetric:
    """A metric given only as a matrix evaluator: a derivative source whose
    partials are Richardson central differences.  `fun` maps a stack of
    points (k, dim) to the stack of metric matrices (k, dim, dim), so each
    difference stencil is one call."""

    def __init__(self, fun, dim):
        self.fun = fun
        self.dim = dim

    def evaluate(self, p):
        return self.fun(np.asarray(p, dtype=float)[None])[0]

    def derivative_fn(self, order):
        """p -> the order-th partials (order 1 or 2), leading axes the directions."""
        fd = {1: fd_gradient, 2: fd_hessian}[order]
        return lambda p: fd(self.fun, p)

    def christoffel(self, p):
        return assemble_gamma_jet(*_derivs(self, p, 1))[0]

    def riemann(self, p):
        p = np.asarray(p, dtype=float)
        return _curvature_tensor(p, *_derivs(self, p, 2))

    def ricci(self, p):
        return self.riemann(p).ricci()
