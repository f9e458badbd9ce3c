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
pointwise metric evaluator (used for lifted metrics).  Geodesics take no
Christoffel tensor: they integrate the spray contracted from G^-1 and dG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import ExprEvalError, _plain
from .metric import MetricSpec, _jet_rows, require_spd


class DomainExitError(RuntimeError):
    """A curve left the chart, `s_exit` being the first offending parameter,
    or (with s_exit None) a point lies outside it."""

    def __init__(self, s_exit, point):
        super().__init__(f"point {_plain(point)} is outside the chart domain" if s_exit is None
                         else f"curve leaves the chart domain at s={s_exit:.6g}")
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
    and Christoffel symbols it was assembled from; at a stack of points,
    every array carries the stack axis first."""
    point: np.ndarray
    G: np.ndarray               # (n, n): the metric matrix
    gamma: np.ndarray           # (n, n, n): gamma[k, i, j]
    rup: np.ndarray             # (n, n, n, n): rup[l, i, j, k]
    rlow: np.ndarray            # (n, n, n, n): rlow[i, j, k, l]

    def ricci(self):
        """Ricci tensor Ric_ab = rup[m, m, a, b]."""
        return np.einsum("...mmab->...ab", self.rup)


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
                - np.einsum("...smi,...sjkl->...mijkl", gamma_c, rlow)
                - np.einsum("...smj,...iskl->...mijkl", gamma_c, rlow)
                - np.einsum("...smk,...ijsl->...mijkl", gamma_c, rlow)
                - np.einsum("...sml,...ijks->...mijkl", gamma_c, rlow))

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
    are computed once for all orders.  G and its partials may carry
    leading stack axes, (B, n, n), (B, n, n, n), ..., and a point is a
    one-row stack.  Every product acts on one row at a time (broadcast
    products added in a fixed order, np.matmul per row), so each row is
    its point value bit for bit whatever else is in the stack."""
    lead, n = G.shape[:-2], G.shape[-1]
    G = G.reshape(-1, n, n)
    B = len(G)
    ginv = _ginv(G)
    dG = [d.reshape((B,) + d.shape[len(lead):]) for d in dG]
    # A[:, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, and its partials
    A = []
    for d in dG:
        t = np.swapaxes(d, -1, -3)      # t[..., l, i, j] = d_j g_il
        A.append(np.swapaxes(t, -1, -2) + t - d)
    gamma = ginv[:, :, 0, None, None] * A[0][:, None, 0]
    for l in range(1, n):
        gamma = gamma + ginv[:, :, l, None, None] * A[0][:, None, l]
    out = [0.5 * gamma]
    if len(dG) > 1:
        A0 = A[0].reshape(B, n, n * n)
        A1 = A[1].reshape(B, n, n, n * n)
        gi = ginv[:, None]
        dginv = -((gi @ dG[0]) @ gi)                            # (B, m, k, l)
        out.append(0.5 * ((dginv.reshape(B, n * n, n) @ A0).reshape(B, n, n, n * n)
                          + gi @ A1))
    if len(dG) > 2:
        # d2ginv[:, m, n] = -(dginv[n] dG[m] ginv + ginv d2G[m, n] ginv + ginv dG[m] dginv[n])
        gi, dGm, dgn = ginv[:, None, None], dG[0][:, :, None], dginv[:, None]
        d2ginv = -((dgn @ dGm) @ gi + (gi @ dG[1]) @ gi + (gi @ dGm) @ dgn)
        out.append(0.5 * ((d2ginv.reshape(B, n ** 3, n) @ A0).reshape(B, n, n, n, n * n)
                          + dginv[:, :, None] @ A1[:, None]
                          + dgn @ A1[:, :, None]
                          + gi @ A[2].reshape(B, n, n, n, n * n)))
    return [o.reshape(lead + (n,) * (k + 3)) for k, o in enumerate(out)]


def assemble_rup(gamma, dgamma):
    term = np.einsum("...iljk->...lijk", dgamma) - np.einsum("...jlik->...lijk", dgamma)
    quad = np.einsum("...lim,...mjk->...lijk", gamma, gamma)
    return term + quad - np.einsum("...lijk->...ljik", quad)


def assemble_rlow(G, rup):
    return np.einsum("...km,...mijl->...ijkl", G, rup)


def assemble_drup(gamma, dgamma, d2gamma):
    """drup[m, l, i, j, k] = d_m R^l_ijk."""
    term = (np.einsum("...miljk->...mlijk", d2gamma)
            - np.einsum("...mjlik->...mlijk", d2gamma))
    quad = (np.einsum("...mlia,...ajk->...mlijk", dgamma, gamma)
            + np.einsum("...lia,...majk->...mlijk", gamma, dgamma))
    return term + quad - np.einsum("...mlijk->...mljik", quad)


# ---------------------------------------------------------------------------
# symbolic-derivative entry points

def _checked_derivs(m: MetricSpec, p, order):
    """[G, dG, ..., d^order G] of a MetricSpec at each row of a stack p
    (B, n), or at a point p (n,) as a one-row stack, from `_jet_rows`,
    checked in row order up to the first row that is outside the domain
    or failed: the rows before it are SPD-checked, then that row raises
    DomainExitError or its error."""
    P = np.atleast_2d(p)
    derivs, errors = _jet_rows(m, P, order)
    outside = ~m.in_domain(P)
    bad = outside.copy()
    bad[list(errors)] = True
    k = int(np.argmax(bad)) if bad.any() else len(P)
    require_spd(derivs[0][:k], P[:k])
    if k < len(P):
        raise DomainExitError(None, P[k]) if outside[k] else errors[k]
    return derivs if p.ndim == 2 else [d[0] for d in derivs]


def _curvature_tensor(p, G, dG, d2G):
    gamma, dgamma = assemble_gamma_jet(G, dG, d2G)
    rup = assemble_rup(gamma, dgamma)
    return CurvatureTensor(p, G, gamma, rup, assemble_rlow(G, rup))


def christoffel(m: MetricSpec, p) -> ConnectionCoeffs:
    p = np.asarray(p, dtype=float)
    return ConnectionCoeffs(p, assemble_gamma_jet(*_checked_derivs(m, p, 1))[0])


def riemann(m: MetricSpec, p) -> CurvatureTensor:
    """The Riemann jet of m at p (n,), or at each row of a stack p (B, n):
    G, Gamma, rup and rlow from one evaluation of G, dG and d2G."""
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
    """The curvature-gradient jet of m at p (n,), or at each row of a stack
    p (B, n), from one evaluation of G and its first three partials;
    `nabla_r` is the Levi-Civita value and `nabla(gamma_c)` the value under
    another connection."""
    p = np.asarray(p, dtype=float)
    G, dG, d2G, d3G = _checked_derivs(m, p, 3)
    gamma, dgamma, d2gamma = assemble_gamma_jet(G, dG, d2G, d3G)
    rup = assemble_rup(gamma, dgamma)
    drup = assemble_drup(gamma, dgamma, d2gamma)
    # d_m rlow_ijkl = d_m g_ka rup[a,i,j,l] + g_ka d_m rup[a,i,j,l]
    drlow = (np.einsum("...mka,...aijl->...mijkl", dG, rup)
             + np.einsum("...ka,...maijl->...mijkl", G, drup))
    return CurvatureGradient(p, G, gamma, assemble_rlow(G, rup), drlow)


def _item(a):
    """A result at one point as a float; at a stack, the array."""
    return float(a) if np.ndim(a) == 0 else a


def tensor_norm(T, G, signature):
    """Norm of a tensor under the metric matrix G: sqrt of the full
    contraction of T (x) T with G (on 'u' slots) and G^-1 (on 'l' slots).
    signature example: "ull".  T and G may carry the same leading stack
    axes, which give one norm per row.  One slot at a time is raised or
    lowered by a matmul, each row on its own.
    """
    T = np.asarray(T, dtype=float)
    lead = np.shape(G)[:-2]
    k = T.ndim - len(lead)
    if len(signature) != k or any(s not in "ul" for s in signature):
        raise ValenceError(f"signature {signature!r} does not match tensor of rank {k}")
    Ginv = _ginv(G)
    # U = T with each slot a contracted with M[a, b]: the first slot moves
    # last, the others index the rows of one matmul per stack row, so after
    # k steps the slots are in order again
    U = T
    for s in signature:
        U = np.moveaxis(U, len(lead), -1)
        U = (U.reshape(lead + (-1, U.shape[-1])) @ (G if s == "u" else Ginv)).reshape(U.shape)
    val = (T * U).reshape(lead + (-1,)).sum(axis=-1)
    return _item(np.sqrt(np.maximum(val, 0.0)))


def coordinate_plane_sup(G, rlow):
    """max |sec| over coordinate 2-planes, read from the metric G and the
    rlow array at one point, or per row of stacks of them."""
    n = G.shape[-1]
    best = np.zeros(G.shape[:-2])
    for i in range(n):
        for j in range(i + 1, n):
            den = G[..., i, i] * G[..., j, j] - G[..., i, j] * G[..., i, j]
            # fmax keeps the best so far over a NaN, as max(best, nan) does
            best = np.fmax(best, np.abs(rlow[..., i, j, i, j] / den))
    return _item(best)


def sup_sectional_coordinate_planes(m: MetricSpec, p) -> float:
    """max |sec| over coordinate 2-planes at p."""
    R = riemann(m, p)
    return coordinate_plane_sup(R.G, R.rlow)


# ---------------------------------------------------------------------------
# geodesics

#: integrator tolerances (adaptive Dormand-Prince 8(5,3))
ODE_RTOL = 1e-10
ODE_ATOL = 1e-10
DOMAIN_TOL = 1e-9

# Dormand-Prince 8(5,3) with the step control of scipy's DOP853 (Hairer,
# Norsett & Wanner, Solving ODEs I, 2nd ed., II.5 and II.10; the digits of
# Hairer's dop853.f, as scipy's dop853_coefficients prints them).  Each
# tableau row is a list of (stage, weight) terms, zero weights left out.
# Rows 1-11 give stages 1-11; row 12 gives the 8th-order solution, whose
# right-hand side is stage 12 (FSAL).  The geodesic equations are
# autonomous, so the stage nodes c_s are not needed.
_A = [None,
      [(0, 5.26001519587677318785587544488e-2)],
      [(0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)],
      [(0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)],
      [(0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
       (3, 9.24834003261792003115737966543e-1)],
      [(0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
       (4, 1.25467687566822425016691814123e-1)],
      [(0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
       (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)],
      [(0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
       (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
       (6, 8.27378916381402288758473766002e-3)],
      [(0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
       (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
       (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)],
      [(0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
       (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
       (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
       (8, -2.03312017085086261358222928593e-2)],
      [(0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
       (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
       (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
       (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)],
      [(0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
       (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
       (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
       (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
       (10, 6.43392746015763530355970484046e-1)],
      [(0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
       (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
       (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
       (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)]]
_B = _A[12]
# the two error estimators: the difference to the embedded 5th-order
# solution, and to the 3rd-order one, whose weights differ from B by bhh1,
# bhh2 and bhh3 at stages 0, 8 and 11
_E5 = [(0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e+1),
       (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e+1),
       (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
       (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1)]
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = [(j, w - _BHH.get(j, 0.0)) for j, w in _B]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _combine(terms, K):
    """sum_j w_j K[j] over the (j, w_j) of `terms`, added in stage order
    (elementwise, so row by row)."""
    (j, w), *rest = terms
    acc = w * K[j]
    for j, w in rest:
        acc += w * K[j]
    return acc


def _rms(z):
    """RMS norm of each row of z, the norm of scipy's initial step."""
    return np.sqrt((z * z).sum(axis=1)) / z.shape[1] ** 0.5


def _error_norm(K, h, scale):
    """scipy DOP853's error norm of each row, |h| |e5|^2 / sqrt((|e5|^2
    + 0.01 |e3|^2) m) with e5, e3 the two error estimates over scale and m
    the number of components; 0 where both estimates vanish."""
    e5 = _combine(_E5, K) / scale
    e3 = _combine(_E3, K) / scale
    e5, e3 = (e5 * e5).sum(axis=1), (e3 * e3).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * scale.shape[1])
    return np.where((e5 == 0) & (e3 == 0), 0.0, norm)


@dataclass
class Trajectory:
    """One integrated trajectory: accepted times t (k,), the states y
    (d, k) at them, its right-hand-side count, and whether a stage point or
    state of an accepted step lay outside the chart (never, without one)."""
    t: np.ndarray
    y: np.ndarray
    nfev: int
    left_chart: bool


@dataclass
class TrajectoryStack:
    """`geodesic_ivp` of a stack: per row a Trajectory, or the exception
    that ended the row (what a single-row call raises); nfev counts the
    right-hand sides of every row."""
    rows: list
    nfev: int


def _dormand_prince(rhs, inside, y0, t_final, rtol, atol, controlled):
    """Integrate y' = f(y) from 0 to t_final > 0 for every row of y0 (B, d),
    with scipy DOP853's tableau, initial step, error norm and step-factor
    limits, and with each row's own t, step size and accept/reject
    decisions.  The initial step and the error norm read only the first
    `controlled` components of a row; the others ride along on its steps.
    rhs(Y) evaluates f at the rows of Y (b, d) and returns (F, errors),
    errors {row of Y: exception} for rows whose evaluation failed; such a
    row, or one whose step size underflows, ends with that exception while
    the others go on.  inside(Y) tells whether each row of Y (b, d) lies in
    the chart, or inside is None: one call per iteration tests the 12 stage
    points and the new state of every accepted step, which marks its row's
    `Trajectory.left_chart` and ends nothing.  Each row's arithmetic is
    elementwise or its own reduction, so a row's result does not depend on
    the stack.
    Returns (per row a Trajectory or an exception, per-row nfev)."""
    B, d = y0.shape
    c = controlled
    nfev = np.zeros(B, dtype=int)
    failure = [None] * B
    left = np.zeros(B, dtype=bool)
    steps = []              # (rows, t, y) of every accepted step

    def evaluate(rows, Y, alive):
        """f at the alive rows of Y; rows whose evaluation fails die."""
        if alive.all():
            (F, errors), live = rhs(Y), range(len(Y))
            nfev[rows] += 1
        else:
            live, F = np.flatnonzero(alive), np.zeros_like(Y)
            if not len(live):
                return F
            F[live], errors = rhs(Y[live])
            nfev[rows[live]] += 1
        for k, exc in errors.items():
            failure[rows[live[k]]] = exc
            alive[live[k]] = False
        return F

    rows = np.arange(B)
    t = np.zeros(B)
    y = y0
    alive = np.ones(B, dtype=bool)
    f = evaluate(rows, y, alive)
    # scipy's select_initial_step, row by row
    scale = atol + np.abs(y[:, :c]) * rtol
    d0, d1 = _rms(y[:, :c] / scale), _rms(f[:, :c] / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_final)
    f1 = evaluate(rows, y + h0[:, None] * f, alive)
    d2 = _rms((f1 - f)[:, :c] / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / 8))
    h_abs = np.minimum(np.minimum(100 * h0, h1), t_final)
    rejected = np.zeros(B, dtype=bool)

    while True:
        rows, t, y, f, h_abs, rejected = (a[alive] for a in (rows, t, y, f, h_abs, rejected))
        if not len(rows):
            break
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        # a fresh step starts at min_step at least; a retried one below it fails
        h_abs = np.where(rejected | (h_abs >= min_step), h_abs, min_step)
        alive = ~(rejected & (h_abs < min_step))
        for r in rows[~alive]:
            failure[r] = RuntimeError(f"geodesic integration failed: {_TOO_SMALL_STEP}")
        t_new = np.minimum(t + h_abs, t_final)
        h = t_new - t
        hc = h[:, None]
        K = np.empty((13,) + y.shape)
        K[0] = f
        S = np.empty((12,) + y.shape)       # the stage points
        S[0] = y
        for s in range(1, 12):
            S[s] = y + _combine(_A[s], K) * hc
            K[s] = evaluate(rows, S[s], alive)
        y_new = y + hc * _combine(_B, K)
        K[12] = evaluate(rows, y_new, alive)
        scale = atol + np.maximum(np.abs(y[:, :c]), np.abs(y_new[:, :c])) * rtol
        error_norm = _error_norm(K[:, :, :c], h, scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            grow = _SAFETY * error_norm ** _ERROR_EXPONENT
        accept = error_norm < 1
        # min/max as Python's: a NaN norm rejects with the smallest factor
        factor = np.where(accept, np.where(grow < _MAX_FACTOR, grow, _MAX_FACTOR),
                          np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR))
        factor = np.where(accept & rejected & ~(factor < 1), 1.0, factor)
        h_abs = np.abs(h) * factor
        done = accept & alive
        if done.any():
            steps.append((rows[done], t_new[done], y_new[done]))
            if inside is not None:
                X = np.concatenate([S[:, done], y_new[None, done]])
                left[rows[done]] |= ~inside(X.reshape(-1, d)).reshape(13, -1).all(axis=0)
        t = np.where(done, t_new, t)
        y = np.where(done[:, None], y_new, y)
        f = np.where(done[:, None], K[12], f)
        rejected = ~accept
        alive &= ~(done & (t_new >= t_final))

    out = [None] * B
    if steps:
        # every accepted step, sorted by row; a row's steps are one slice.
        # One copy at a time, so the peak stays at twice the step data.
        all_rows, all_t, all_y = (np.concatenate(a) for a in zip(*steps))
        del steps
        order = np.argsort(all_rows, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(all_rows, minlength=B))])
        all_t = all_t[order]
        all_y = all_y[order]
    for r in range(B):
        if failure[r] is not None:
            out[r] = failure[r]
            continue
        sl = slice(bounds[r], bounds[r + 1])
        ts = np.concatenate([[0.0], all_t[sl]])
        ys = np.concatenate([y0[r:r + 1], all_y[sl]])
        out[r] = Trajectory(ts, ys.T, int(nfev[r]), bool(left[r]))
    return out, nfev


def _geodesic_rhs(m, variational):
    """The stacked right-hand side of the geodesic (and variational)
    equations for `_dormand_prince`, as the contracted spray Gamma(v, v) =
    G^-1 w / 2, w_l = 2 v^i Q[i, l] - Q[l, j] v^j, Q[m, l] = d_m g_lj v^j.
    m is either derivative source.  G, dG and (variational) d2G come from
    one `_jet_rows` call and G^-1 from one stacked inverse; a row whose
    jets fail, or whose G is singular (LinAlgError), fails alone.  No
    point is tested for SPD here, nor against the chart: `geodesic_ivp`
    tests the chart once per stepper iteration."""
    n = m.dim
    order = 2 if variational else 1

    def rhs(Y):
        b = len(Y)
        (G, dG, *d2G), errors = _jet_rows(m, Y[:, :n], order)
        try:
            ginv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            # row by row: a failed row's zero G raises again and keeps its error
            ginv = np.zeros_like(G)
            for k in range(b):
                try:
                    ginv[k] = np.linalg.inv(G[k])
                except np.linalg.LinAlgError as exc:
                    errors.setdefault(k, exc)
        vel = Y[:, n:2 * n]
        vc, vr = vel[:, :, None], vel[:, None, :]
        Q = (dG @ vc[:, None])[..., 0]
        gvv = 0.5 * (ginv @ (2.0 * np.swapaxes(vr @ Q, -1, -2) - Q @ vc))[..., 0]
        if not variational:
            return np.concatenate([vel, -gvv], axis=1), errors
        J = Y[:, 2 * n:2 * n + n * n].reshape(b, n, n)
        K = Y[:, 2 * n + n * n:].reshape(b, n, n)
        # gv[k, i] = Gamma^k_ij v^j = G^-1 (Q^T + v^m d_m G - Q) / 2
        dGv = (vr @ dG.reshape(b, n, n * n)).reshape(b, n, n)
        gv = 0.5 * (ginv @ (np.swapaxes(Q, -1, -2) + dGv - Q))
        # dgvv[m, k] = d_m Gamma^k_ij v^i v^j = G^-1 (d_m w / 2 - d_m G Gamma(v, v)),
        # d_m w from R[m, i, l] = d_m d_i g_lj v^j as w is from Q
        R = (d2G[0] @ vc[:, None, None])[..., 0]
        dw = 2.0 * np.swapaxes(vr[:, None] @ R, -1, -2) - R @ vc[:, None]
        dgvv = (ginv[:, None] @ (0.5 * dw - dG @ gvv[:, None, :, None]))[..., 0]
        dK = -(np.swapaxes(dgvv, -1, -2) @ J) - 2.0 * (gv @ K)
        return np.concatenate([vel, -gvv, K.reshape(b, n * n), dK.reshape(b, n * n)],
                              axis=1), errors

    return rhs


def geodesic_ivp(m: MetricSpec, p, v, t_final, rtol=ODE_RTOL, atol=ODE_ATOL,
                 variational=False):
    """Integrate x'' + Gamma(x)(x', x') = 0 from x(0) = p, x'(0) = v over
    [0, t_final], t_final > 0, on framelab's Dormand-Prince 8(5,3) stepper.
    m is a MetricSpec or a NumericMetric.  The right-hand side is the
    contracted spray (`_geodesic_rhs`), with no Christoffel tensor.  On a
    MetricSpec, the 12 stage points and the new state of every accepted
    step are tested against the chart (`in_domain(tol=DOMAIN_TOL,
    wrap=True)`), one stacked call per stepper iteration; a point outside
    marks `Trajectory.left_chart` and ends nothing.  A NumericMetric has
    no chart, and no test.

    p and v are one point and velocity (n,), or stacks (B, n) integrated in
    lockstep, each row with its own step control.  One row returns a
    `Trajectory` (y[:, -1] is the end state) or raises: the ExprEvalError
    or LinAlgError of its right-hand side, or RuntimeError when its step
    size underflows.  A stack returns a `TrajectoryStack`, in which a
    failed row holds that exception and fails alone; every row is bitwise
    its single-row result.

    With variational=True the state also carries J = dx/dv0 and K = dv/dv0
    (n x n each, row-major after x and v), started at J = 0, K = I and
    driven by the linearized equations J' = K,
    K' = -dGamma(x)[J](v, v) - 2 Gamma(x)(v, K).  rtol and atol apply to
    (x, v) only: the step control reads the geodesic, and J and K ride
    along on its steps, so t, the (x, v) rows and left_chart are bitwise
    those of variational=False.
    """
    if not t_final > 0:
        raise ValueError(f"geodesic_ivp integrates forward: t_final = {t_final}")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    n = m.dim
    P, V = np.broadcast_arrays(np.atleast_2d(p), np.atleast_2d(v))
    y0 = np.concatenate([P, V], axis=1)
    if variational:
        B = len(y0)
        y0 = np.concatenate([y0, np.zeros((B, n * n)), np.tile(np.eye(n).ravel(), (B, 1))],
                            axis=1)
    inside = ((lambda Y: m.in_domain(Y[:, :n], tol=DOMAIN_TOL, wrap=True))
              if isinstance(m, MetricSpec) else None)
    rows, nfev = _dormand_prince(_geodesic_rhs(m, variational),
                                 inside, y0, float(t_final), rtol, atol, 2 * n)
    if p.ndim == 1 and v.ndim == 1:
        if isinstance(rows[0], Exception):
            raise rows[0]
        return rows[0]
    return TrajectoryStack(rows, int(nfev.sum()))


def geodesic_energy_drift(m: MetricSpec, sol):
    """The spread of the energy g(v, v) over the accepted states of a
    `Trajectory`, relative to its largest value."""
    n = m.dim
    x, vel = sol.y[:n].T, sol.y[n:2 * n].T
    vals = ((vel[:, None] @ m.evaluate(x)) @ vel[:, :, None])[:, 0, 0]
    scale = max(vals.max(), 1e-30)
    return float((vals.max() - vals.min()) / scale)


def geodesic_between(m: MetricSpec, p, q, tol=1e-10, max_iter=12,
                     rtol=1e-10, atol=1e-10):
    """Two-point geodesics by shooting, exp_p(v) = q.

    Newton's method on v -> exp_p(v) - q; each step takes one integration
    of the geodesic with its variational equations, whose J(1) is the exact
    Jacobian of the endpoint map.  The iteration starts at the straight-line
    velocity q - p, which works whenever the chart is close to flat on the
    segment.

    One pair p, q (n,) returns (v, length); a shot that fails to converge,
    or whose integration fails or leaves the metric's domain of evaluation,
    raises RuntimeError.  Leaving the chart is judged on the final Newton
    pass alone, from its `Trajectory.left_chart`: every stage point and
    state of its accepted steps (a NumericMetric has no chart).  Stacks
    (B, n) (p or q may be one point) shoot every pair in lockstep, one
    stacked integration per Newton pass over the rows still open, and
    return (V, lengths, reasons): reasons[k] is None or the message the
    single pair would raise, and failed rows have NaN in V and lengths.
    The lengths of the converged rows are one stacked `m.evaluate`.  Row k
    is bitwise the single-pair result.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    P, Q = np.broadcast_arrays(np.atleast_2d(p), np.atleast_2d(q))
    V = np.array(Q - P, dtype=float)
    B, n = P.shape
    reasons, causes = [None] * B, [None] * B
    todo = np.arange(B)
    for _ in range(max_iter):
        if not len(todo):
            break
        shots = geodesic_ivp(m, P[todo], V[todo], 1.0, rtol=rtol, atol=atol,
                             variational=True).rows
        still = []
        for k, shot in zip(todo, shots):
            if isinstance(shot, Exception):
                causes[k] = shot
                reasons[k] = (str(shot) if isinstance(shot, RuntimeError)
                              else f"shooting integration failed: {shot}")
                continue
            end = shot.y[:, -1]
            err = end[:n] - Q[k]
            if np.linalg.norm(err) < tol:
                if shot.left_chart:
                    reasons[k] = "shot leaves the chart domain"
                continue
            J = end[2 * n:2 * n + n * n].reshape(n, n)
            try:
                step = np.linalg.solve(J, err)
            except np.linalg.LinAlgError:
                reasons[k] = "shooting Jacobian singular"
                continue
            V[k] = V[k] - step
            still.append(k)
        todo = np.array(still, dtype=int)
    for k in todo:
        reasons[k] = f"shooting failed to converge for {P[k]} -> {Q[k]}"
    done = np.array([r is None for r in reasons])
    lengths = np.full(B, np.nan)
    if done.any():
        v = V[done]
        lengths[done] = np.sqrt(np.maximum(
            ((v[:, None] @ m.evaluate(P[done])) @ v[:, :, None])[:, 0, 0], 0.0))
    V[~done] = np.nan
    single = p.ndim == 1 and q.ndim == 1
    if single and reasons[0] is not None:
        raise RuntimeError(reasons[0]) from causes[0]
    return (V[0], float(lengths[0])) if single else (V, lengths, reasons)


#: 8-point Gauss-Legendre rule on [-1, 1], the panel rule of curve_length
GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def curve_length(m: MetricSpec, curve, velocity, samples=256):
    """Length of a parametric curve on [0, 1] under m, with exact velocity:
    composite Gauss-Legendre quadrature of |c'|_g, 8 nodes per panel.
    `curve` and `velocity` map an array of t (k,) to (k, n), or for several
    curves at once to (c, k, n), which gives c lengths.  The metric is evaluated at
    all nodes as one stack (`_jet_rows`); the first node where it fails
    raises its error.  Each node's |c'|^2 is its own v @ G @ v
    (one stacked matmul), and each curve's terms are added one by one in
    panel and node order."""
    edges = np.linspace(0.0, 1.0, samples // 8 + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * GL8_NODES).ravel()
    C = np.asarray(curve(t), dtype=float)
    V = np.asarray(velocity(t), dtype=float)
    (G,), errors = _jet_rows(m, C.reshape(-1, m.dim), 0)
    if errors:
        raise errors[min(errors)]
    G = G.reshape(C.shape + (m.dim,))
    speed = np.sqrt(np.maximum(((V[..., None, :] @ G) @ V[..., :, None])[..., 0, 0], 0.0))
    # a cumulative sum adds in order, term by term
    total = np.cumsum((GL8_WEIGHTS * half[:, None]).ravel() * speed, axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


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


def fd_gradient(fun, p):
    """Richardson-extrapolated first partials of an array-valued function
    at a point p (n,), shape (n,) + value shape, or at each centre of a
    stack p (B, n), shape (B, n) + value shape.

    `fun` maps a stack of points (k, n) to the stack of its values; it is
    called once, on the stencils p +- h e_a of every centre for the steps
    h = FD_H1 and FD_H2.  Each centre's rows and quotients are the point's
    arithmetic, so with a `fun` whose rows do not depend on their stack, a
    centre's partials are bitwise its point partials.
    """
    h1, h2 = FD_H1, FD_H2
    p = np.asarray(p, dtype=float)
    P = np.atleast_2d(p)
    B, n = P.shape
    rows = [P[:, None] + s * h * np.eye(n) for h in (h1, h2) for s in (1.0, -1.0)]
    F = fun(np.concatenate(rows, axis=1).reshape(-1, n))
    F = F.reshape((B, 4, n) + F.shape[1:])
    out = _richardson((F[:, 0] - F[:, 1]) / (2 * h1), (F[:, 2] - F[:, 3]) / (2 * h2), h1, h2)
    return out if p.ndim == 2 else out[0]


def fd_hessian(fun, p):
    """Richardson-extrapolated second partials at a point p (n,), shape
    (n, n) + value shape, or at each centre of a stack p (B, n), shape
    (B, n, n) + value shape.

    `fun` maps a stack of points to the stack of its values; it is called
    once, on every centre itself and its stencils of both steps: p +- h e_a
    for the diagonal and the four corners p +- h e_a +- h e_b for each
    a < b.  As in `fd_gradient`, each centre's partials are bitwise its
    point partials when `fun`'s rows do not depend on their stack.
    """
    h1, h2 = FD_H1_SECOND, FD_H2_SECOND
    p = np.asarray(p, dtype=float)
    P = np.atleast_2d(p)[:, None]
    B, _, n = P.shape
    ia, ib = np.triu_indices(n, 1)
    rows = [P]
    for h in (h1, h2):
        E = h * np.eye(n)
        rows += [P + E, P - E]
        rows += [P + s * E[ia] + t * E[ib] for s in (1.0, -1.0) for t in (1.0, -1.0)]
    F = fun(np.concatenate(rows, axis=1).reshape(-1, n))
    F = F.reshape((B, -1) + F.shape[1:])
    f0, F = F[:, 0], F[:, 1:].reshape((B, 2, -1) + F.shape[2:])
    diag, off = [], []
    for k, h in enumerate((h1, h2)):
        Fh = F[:, k]
        diag.append((Fh[:, :n] - 2.0 * f0[:, None] + Fh[:, n:2 * n]) / (h * h))
        c = Fh[:, 2 * n:].reshape((B, 4, len(ia)) + f0.shape[1:])
        off.append((c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]) / (4 * h * h))
    out = np.empty((B, n, n) + f0.shape[1:])
    out[:, np.arange(n), np.arange(n)] = _richardson(*diag, h1, h2)
    out[:, ia, ib] = out[:, ib, ia] = _richardson(*off, h1, h2)
    return out if p.ndim == 2 else out[0]


class NumericMetric:
    """A metric given only as a matrix evaluator: a derivative source whose
    partials are Richardson central differences.  `fun` maps a stack of
    points (k, dim) to the stack of metric matrices (k, dim, dim), so each
    difference stencil is one call.  Like a MetricSpec, it evaluates a
    point (dim,) or a stack (B, dim)."""

    def __init__(self, fun, dim):
        self.fun = fun
        self.dim = dim

    def evaluate(self, p):
        p = np.asarray(p, dtype=float)
        return self.fun(p) if p.ndim == 2 else self.fun(p[None])[0]

    def derivative_fn(self, order):
        """p -> [G, dG, ..., d^order G] (order 0, 1 or 2), the partials'
        leading axes the directions, as `MetricSpec.derivative_fn` returns
        them; a stack of points (B, dim) gives a leading stack axis, and
        each order is one `fun` call over G or the stencils of all rows."""
        fds = (fd_gradient, fd_hessian)[:order]
        return lambda p: [self.evaluate(p)] + [fd(self.fun, p) for fd in fds]

    def riemann(self, p):
        """The Riemann jet at a point (dim,), or at each row of a stack
        (B, dim): three `fun` calls in all (G, the gradient stencils and the
        Hessian stencils), then one stacked assembly, in which each row is
        bitwise its point jet."""
        p = np.asarray(p, dtype=float)
        return _curvature_tensor(p, *self.derivative_fn(2)(p))

    def ricci(self, p):
        """Ricci at a point (dim,), or (B, dim, dim) for a stack (B, dim)."""
        return self.riemann(p).ricci()
