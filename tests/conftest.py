import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet, schur

from framelab import curvature as cv
from framelab import expr as ex
from framelab import metric as mt
from framelab import ortho as ot


#: a generic non-diagonal pair: every component depends on a coordinate
GMET_N3 = ("""dim 3; coords x y z;
domain x in [0.0, 1.5]; domain y in [0.0, 1.5]; domain z in [0.0, 1.5];
g = [[1.294724 + 0.180127*sin(1.082162*z + 0.282386), -0.123784*cos(1.456267*z + 0.852603),
      -0.119622*cos(0.792721*y + 0.004470)],
     [-0.123784*cos(1.456267*z + 0.852603), 1.373251 + 0.147905*sin(0.659739*z + 2.203731),
      0.147346*cos(0.798401*x + 0.941958)],
     [-0.119622*cos(0.792721*y + 0.004470), 0.147346*cos(0.798401*x + 0.941958),
      1.356491 + 0.151674*sin(0.930628*x + 1.760396)]];
""", """dim 3; coords x y z;
domain x in [0.0, 1.5]; domain y in [0.0, 1.5]; domain z in [0.0, 1.5];
g = [[1.434065 + 0.147131*sin(1.273277*y + 0.091038), 0.122216*cos(0.718715*z + 2.489661),
      0.118280*cos(1.320076*y + 1.285719)],
     [0.122216*cos(0.718715*z + 2.489661), 1.482786 + 0.137424*sin(0.590853*x + 1.981500),
      0.125871*cos(1.378480*x + 0.306960)],
     [0.118280*cos(1.320076*y + 1.285719), 0.125871*cos(1.378480*x + 0.306960),
      1.282876 + 0.163009*sin(0.798163*y + 2.225270)]];
""")


_REFERENCE_OPS = {ex.Add: operator.add, ex.Sub: operator.sub, ex.Mul: operator.mul,
                  ex.Div: operator.truediv, ex.Pow: operator.pow}
_REFERENCE_CALLS = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "tan": math.tan,
                    "exp": math.exp, "log": math.log, "abs": abs,
                    "sign": lambda x: math.copysign(1.0, x) if x else 0.0}


def reference_eval(e, env):
    """An Expr on Python floats, walking the tree node by node with `math`
    and float ** for powers: what the point binding of `compile_exprs`
    must return bit for bit on the tree e it is given.  env maps names to
    floats."""
    t = type(e)
    if t is ex.Num:
        return float(e.value)
    if t is ex.Sym:
        return env[e.name]
    if t is ex.Neg:
        return -reference_eval(e.a, env)
    if t is ex.Call:
        return _REFERENCE_CALLS[e.fn](reference_eval(e.a, env))
    return _REFERENCE_OPS[t](reference_eval(e.a, env), reference_eval(e.b, env))


def _const(v):
    return ex.Num(Fraction(v))


#: the outer derivative f'(u) of each function f, as a tree in u
_OUTER = {"sin": lambda e: ex.Call("cos", e.a),
          "cos": lambda e: ex.Neg(ex.Call("sin", e.a)),
          "tan": lambda e: ex.Div(_const(1), ex.Pow(ex.Call("cos", e.a), _const(2))),
          "exp": lambda e: e,
          "log": lambda e: ex.Div(_const(1), e.a),
          "sqrt": lambda e: ex.Div(_const(1), ex.Mul(_const(2), e)),
          "abs": lambda e: ex.Call("sign", e.a),
          "sign": lambda e: _const(0)}


def textbook_derivative(e, var, memo):
    """The partial derivative of e by the sum, product, quotient, power and
    chain rules, every node built as the rule writes it and nothing folded:
    its `ex.simplify` is what the folded derivatives of `ex.differentiate`
    and `MetricSpec.derivative_fn` must equal.  memo, keyed by node
    identity and holding the node, differentiates a shared subtree once."""
    t = type(e)
    if t is ex.Num:
        return _const(0)
    if t is ex.Sym:
        return _const(1 if e.name == var else 0)
    hit = memo.get((id(e), var))
    if hit is not None:
        return hit[1]

    def d(u):
        return textbook_derivative(u, var, memo)

    if t in (ex.Add, ex.Sub):
        out = t(d(e.a), d(e.b))
    elif t is ex.Neg:
        out = ex.Neg(d(e.a))
    elif t is ex.Mul:
        out = ex.Add(ex.Mul(d(e.a), e.b), ex.Mul(e.a, d(e.b)))
    elif t is ex.Div:
        out = ex.Div(ex.Sub(ex.Mul(d(e.a), e.b), ex.Mul(e.a, d(e.b))), ex.Pow(e.b, _const(2)))
    elif t is ex.Pow and not ex.free_symbols(e.b):
        out = ex.Mul(ex.Mul(e.b, ex.Pow(e.a, ex.Sub(e.b, _const(1)))), d(e.a))
    elif t is ex.Pow:
        out = ex.Mul(e, ex.Add(ex.Mul(d(e.b), ex.Call("log", e.a)),
                               ex.Div(ex.Mul(e.b, d(e.a)), e.a)))
    else:
        out = ex.Mul(_OUTER[e.fn](e), d(e.a))
    memo[id(e), var] = (e, out)
    return out


def stacked(fun):
    """A pointwise function as the stack -> stack map that `fd_gradient`,
    `fd_hessian` and `NumericMetric` call."""
    return lambda points: np.stack([fun(p) for p in points])


def counting_rhs(monkeypatch):
    """Patch the geodesic right-hand side so each call records its number
    of rows; returns that list."""
    rows = []
    geodesic_rhs = cv._geodesic_rhs

    def counted(m, variational):
        rhs = geodesic_rhs(m, variational)
        return lambda Y: rows.append(len(Y)) or rhs(Y)

    monkeypatch.setattr(cv, "_geodesic_rhs", counted)
    return rows


def _central(fun, p, axis, h):
    e = np.zeros(len(p))
    e[axis] = h
    return (fun(p + e) - fun(p - e)) / (2 * h)


def reference_gradient(fun, p, h1=cv.FD_H1, h2=cv.FD_H2):
    """Richardson-extrapolated first partials of a pointwise function at
    one point p (n,), one central difference per direction and step: what
    `fd_gradient` computes at its steps FD_H1, FD_H2, and at other steps
    for a test that needs them."""
    w = h1 * h1 / (h1 * h1 - h2 * h2)
    return np.stack([w * _central(fun, p, a, h2) + (1 - w) * _central(fun, p, a, h1)
                     for a in range(len(p))])


def dipping_cone_pair(a=0.7, R=1.5, depth=1e-3, r_min=0.7):
    """Two points (R, phi) of the exact cone dr^2 + a^2 r^2 dphi^2, placed so
    that their geodesic, a straight segment of the flat development, passes
    `depth` below r_min at its midpoint: (p, q, r_min, length, dip), dip
    the fraction of the length that lies below r_min.  The development
    angle between them, 2 acos((r_min - depth) / R), stays below pi, so p,
    q are each other's nearest period representatives."""
    d = r_min - depth
    half = math.acos(d / R) / a
    length = 2.0 * math.sqrt(R * R - d * d)
    dip = 2.0 * math.sqrt(r_min * r_min - d * d) / length
    return np.array([R, 3.0 - half]), np.array([R, 3.0 + half]), r_min, length, dip


def connection_form(chart, y, v):
    """omega(v) at the chart point y (N,), for a chart vector v (N,): the
    contraction of `omega_basis`."""
    om_x, om_t = chart.omega_basis(y)
    v = np.asarray(v, dtype=float)
    return (np.einsum("i,iab->ab", v[:chart.n], om_x)
            + np.einsum("a,aqr->qr", v[chart.n:], om_t))


def fd_christoffel(num, y):
    """Gamma[k, i, j] of a NumericMetric at y, from its finite-difference
    first partials."""
    return cv.assemble_gamma_jet(*num.derivative_fn(1)(y))[0]


def with_components(m, components, name=None):
    """A copy of metric m with other component expressions."""
    return mt.MetricSpec(m.dim, m.coords, components, m.domain, dict(m.params),
                         dict(m.periods), name if name is not None else m.name)


# the per-point lifted metric that the stacked chart replaced: one chart
# point at a time, one expm_frechet call per fiber direction

def reference_omega_basis(chart, y):
    """omega on each chart basis vector at one chart point y (N,), n >= 2."""
    y = np.asarray(y, dtype=float)
    n = chart.n
    x, t = y[:n], y[n:]
    G = chart.gp.check_spd(x)
    dG = chart.gp.derivative_fn(1)(x)[1]
    Linv = np.linalg.inv(np.linalg.cholesky(G))
    S = Linv.T
    gamma = cv.assemble_gamma_jet(G, dG)[0]
    Sinv = np.linalg.inv(S)
    C = np.empty((n, n, n))
    for i in range(n):
        M = Linv @ dG[i] @ Linv.T
        Phi = np.tril(M, -1) + 0.5 * np.diag(np.diag(M))
        C[i] = Sinv @ (-S @ Phi.T + gamma[:, i, :] @ S)
    A0 = chart.anchor.frame
    T = chart.skew_from_t(t)
    if np.abs(T).max() == 0.0:
        E0 = np.eye(n)
        phis = list(chart.basis)
    else:
        E0 = expm(T)
        phis = [E0.T @ expm_frechet(T, B)[1] for B in chart.basis]
    Q = E0 @ A0
    om_x = np.einsum("ab,iac,cd->ibd", Q, C, Q)
    om_t = np.stack([A0.T @ ph @ A0 for ph in phis], axis=0)
    return om_x, om_t


def reference_metric_matrix(chart, y):
    """The lifted metric at one chart point from `reference_omega_basis`."""
    om_x, om_t = reference_omega_basis(chart, y)
    n = chart.n
    G = chart.g.evaluate(np.asarray(y, dtype=float)[:n])
    vx = np.stack([ot.vec_skew(om_x[i]) for i in range(n)], axis=0)
    vt = np.stack([ot.vec_skew(om_t[a]) for a in range(chart.m)], axis=0)
    hv = vx @ vt.T
    return np.block([[G + vx @ vx.T, hv], [hv.T, vt @ vt.T]])


def reference_a_tensor_vertical(ctx, x, y):
    """That-components of (nabla~_X Y)^V for horizontal lifts of x, y at an
    `oneill.ONeillContext`: W[lam, mu] = (1/sqrt 2) R4_eps(x, y, e_lam,
    e_mu), in one einsum; stacks x, y (k, n) give one W per pair."""
    return np.einsum("abkl,...a,...b,ku,lv->...vu",
                     ctx.rlow_eps, x, y, ctx.e, ctx.e) / math.sqrt(2.0)


# references for the curvature of (O(n), b)

def sectional_biinvariant(a1, a2):
    """Sectional curvature of (O(n), b) on the plane spanned by a1, a2."""
    br = a1 @ a2 - a2 @ a1
    num = 0.25 * ot.biinvariant_inner(br, br)
    den = (ot.biinvariant_inner(a1, a1) * ot.biinvariant_inner(a2, a2)
           - ot.biinvariant_inner(a1, a2) ** 2)
    if den <= 0:
        raise ValueError("a1, a2 do not span a 2-plane")
    return num / den


def ricci_biinvariant(xi):
    """Ricci of (O(n), b) in direction xi: (1/4) sum_a |[xi, u_a]|_b^2 over a
    b-orthonormal basis u_a."""
    xi = ot.check_skew(xi)
    total = 0.0
    for a in ot.skew_basis(xi.shape[0]):
        a = a / ot.b_norm(a)
        br = xi @ a - a @ xi
        total += ot.biinvariant_inner(br, br)
    return 0.25 * total


# the real-Schur references that the eigenvalue distance and the Cayley log
# replaced

#: subdiagonal size below which `_schur_blocks` reads a 2x2 block of the
#: real Schur form as two real eigenvalues, dropping its rotation angle
SCHUR_BLOCK_TOL = 1e-9


def _schur_blocks(A, tol=SCHUR_BLOCK_TOL):
    """Real Schur form of an orthogonal matrix: rotation angles and the
    number of -1 eigenvalues, plus the transform Q with A = Q T Q^T."""
    T, Q = schur(np.asarray(A, dtype=float), output="real")
    n = A.shape[0]
    blocks = []   # (start index, angle) for 2x2 rotation blocks
    minus = []    # indices of -1 diagonal entries
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > tol:
            theta = math.atan2(T[i + 1, i], T[i, i])
            blocks.append((i, theta))
            i += 2
        else:
            if T[i, i] < 0:
                minus.append(i)
            i += 1
    return T, Q, blocks, minus


class ReferenceLogError(ValueError):
    """`reference_group_log` of a matrix with a rotation angle near pi."""


def reference_group_log(A, angle_tol=1e-9):
    """Principal logarithm: the skew a with exp(a) = A, all angles < pi."""
    A = ot.check_orthogonal(A)
    n = A.shape[0]
    T, Q, blocks, minus = _schur_blocks(A)
    if minus:
        raise ReferenceLogError("matrix has an eigenvalue -1 (rotation angle pi)")
    for _, theta in blocks:
        if abs(theta) >= math.pi - angle_tol:
            raise ReferenceLogError(f"rotation angle {abs(theta):.6f} too close to pi")
    L = np.zeros((n, n))
    for i, theta in blocks:
        L[i, i + 1] = -theta
        L[i + 1, i] = theta
    return Q @ L @ Q.T


def reference_group_distance(u, v):
    """d_b(u, v) for one pair from the real Schur form of v u^T: twice the
    sum of its squared block rotation angles, -1 eigenvalues paired into
    angle-pi planes; +inf across the components.  `_schur_blocks` reads a
    block whose subdiagonal is below SCHUR_BLOCK_TOL as two real eigenvalues,
    so angles under about that size count as 0."""
    u = ot.check_orthogonal(u)
    v = ot.check_orthogonal(v)
    if np.linalg.det(u) * np.linalg.det(v) < 0:
        return math.inf
    _, _, blocks, minus = _schur_blocks(v @ u.T)
    angles = [abs(theta) for _, theta in blocks] + [math.pi] * (len(minus) // 2)
    return math.sqrt(2.0 * sum(t * t for t in angles))


# the search that the closed-form quotient distance replaced: for an algebra
# it draws a random coarse grid of H and polishes the best point with
# Nelder-Mead, so its value is an upper bound on the exact one

def reference_quotient_distance(u, v, H, rng=None, coarse=200, polish=True):
    """inf over h in the estimated subgroup H of d_b(h u, v)."""
    u = ot.check_orthogonal(u)
    v = ot.check_orthogonal(v)
    n = u.shape[0]
    base = ot.group_distance(u, v)
    label = H.label

    if label == "trivial":
        return base
    if label == "SO(2)-circle" or label.startswith("full-SO("):
        return 0.0 if math.isfinite(base) else math.inf
    if label.startswith("finite-cyclic"):
        gen = H.finite_generators[0]
        moved = []
        P = np.eye(n)
        for _ in range(max(H.order, 1)):
            moved.append(P @ u)
            P = P @ gen
        return min(base, float(ot.group_distance(np.array(moved), v).min()))
    if label == "SU(2)-in-SO(4)" or (label == "other" and H.algebra_basis):
        basis = H.algebra_basis
        k = len(basis)
        rng = rng or np.random.default_rng(0)
        best = base
        best_theta = np.zeros(k)
        thetas = []
        for _ in range(coarse):
            theta = rng.normal(size=k)
            norm = np.linalg.norm(theta)
            if norm > 0:
                theta = theta * (rng.random() * 2 * math.pi) / norm
            thetas.append(theta)
        if thetas:
            moved = ot.group_exp(np.einsum("ck,kij->cij", thetas, basis)) @ u
            d = ot.group_distance(moved, v)
            i = int(np.argmin(d))
            if d[i] < best:
                best = float(d[i])
                best_theta = thetas[i]
        if polish and math.isfinite(best):
            from scipy.optimize import minimize

            def f(theta):
                h = ot.group_exp(sum(t * a for t, a in zip(theta, basis)))
                d = ot.group_distance(h @ u, v)
                return d if math.isfinite(d) else 1e6

            res = minimize(f, best_theta, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
            best = min(best, float(res.fun))
        return best
    if label == "other" and H.finite_generators:
        moved = np.array([g @ u for g in H.finite_generators])
        return min(base, float(ot.group_distance(moved, v).min()))
    return base


@pytest.fixture(scope="session")
def flat2():
    return mt.flat_euclidean(2)


@pytest.fixture(scope="session")
def torus2():
    return mt.flat_torus(2)


@pytest.fixture(scope="session")
def sphere():
    return mt.round_sphere()


@pytest.fixture(scope="session")
def eh():
    return mt.eguchi_hanson(1.0)


@pytest.fixture(scope="session")
def cone_smooth():
    return mt.smoothed_cone(0.7, 0.1)


@pytest.fixture(scope="session")
def cone_pair():
    # g sharper than g': the two Levi-Civita connections genuinely differ
    return mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.30)


@pytest.fixture(scope="session")
def s3_quarter():
    """Round S^3 of curvature 1 in Euler angles: (1/4)(sigma1^2 + sigma2^2
    + sigma3^2) with sigma3 = dps + cos(th) dph."""
    th = ex.Sym("th")
    q = ex.Num(Fraction(1, 4))
    c = ex.cos(th)
    comps = [
        [q, ex.Num(Fraction(0)), ex.Num(Fraction(0))],
        [ex.Num(Fraction(0)), q, ex.Mul(q, c)],
        [ex.Num(Fraction(0)), ex.Mul(q, c), q],
    ]
    dom = ((0.25, math.pi - 0.25), (0.0, 2 * math.pi), (0.0, 2 * math.pi))
    return mt.MetricSpec(3, ("th", "ph", "ps"), comps, dom, {},
                         {"ph": 2 * math.pi, "ps": 2 * math.pi}, "round-S3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
