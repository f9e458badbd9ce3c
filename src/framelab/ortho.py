"""The orthogonal group O(n) with the bi-invariant metric b(a1, a2) =
-trace(a1 a2) on its Lie algebra of skew matrices: exponential and
principal-log charts, geodesic distances, quotient pseudo-distances, and
classification of subgroups estimated from holonomy samples.

Every exponential of a skew matrix, its derivative and every principal log
comes from one Hermitian eigendecomposition of a skew matrix (Higham,
Functions of Matrices, 2008, Thm 3.11).  The log takes it of the Cayley
transform C = (A + I)^{-1} (A - I), with log A = 2 artanh(C) (ibid. §11),
and `classify_subgroup` takes all its logs in one stacked call.
`quotient_distance` is exact, with one closed form per subgroup class; for
SU(2)-in-SO(4) it is a rotation angle in SO(3), and it refuses `other`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SKEW_TOL = 1e-10
ORTH_TOL = 1e-10
#: `_principal_logs` refuses a matrix with a rotation angle at or above pi minus this
LOG_ANGLE_TOL = 1e-9
#: relative slack of `frobenius_lower_bound`; it absorbs rounding
FROBENIUS_SLACK = 1e-6
#: pairs per eigenvalue call of `group_distance`
DISTANCE_BLOCK = 1024
#: `classify_subgroup` takes logs of the samples within this d_b of I
NEAR_IDENTITY = 1.5
#: relative singular-value floor of the sampled algebra's rank, and the
#: largest chirality residual of an SU(2)-in-SO(4) basis
SVD_TOL = 1e-6
#: largest relative bracket residual of a subalgebra
BRACKET_TOL = 1e-5
#: a finite-cyclic generator's power must come within 10x this of I
FINITE_TOL = 1e-6


class NotSkewError(ValueError):
    pass


class NotOrthogonalError(ValueError):
    pass


def skew_pairs(n):
    """Index pairs (lam, mu) with lam < mu, lexicographic; dim = n(n-1)/2."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def skew_basis_element(n, lam, mu):
    e = np.zeros((n, n))
    e[lam, mu] = 1.0
    e[mu, lam] = -1.0
    return e


def skew_basis(n):
    return [skew_basis_element(n, lam, mu) for lam, mu in skew_pairs(n)]


def check_skew(a):
    """a, (n, n) or a stack (..., n, n), if each matrix is skew to SKEW_TOL."""
    a = np.asarray(a, dtype=float)
    r = np.abs(a + np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    if (r > SKEW_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))).any():
        raise NotSkewError(f"matrix is not skew-symmetric (residual {r.max():.3e})")
    return a


def check_orthogonal(A):
    """A, an (n, n) matrix or a stack (..., n, n), if orthogonal to ORTH_TOL;
    a non-finite entry fails, its residual being NaN or infinite."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-2]
    with np.errstate(invalid="ignore", over="ignore"):
        r = float(np.abs(np.swapaxes(A, -1, -2) @ A - np.eye(n)).max(initial=0.0))
    if not r <= ORTH_TOL:
        raise NotOrthogonalError(f"matrix is not orthogonal (residual {r:.3e})")
    return A


def biinvariant_inner(a1, a2):
    """b(a1, a2) = -trace(a1 a2); positive definite on skew matrices."""
    a1 = check_skew(a1)
    a2 = check_skew(a2)
    return -float(np.trace(a1 @ a2))


def b_norm(a):
    return math.sqrt(max(biinvariant_inner(a, a), 0.0))


@lru_cache(maxsize=None)
def skew_index(n):
    """`skew_pairs(n)` as two read-only index arrays (lam, mu), built once
    per n."""
    idx = np.array(skew_pairs(n), dtype=int).reshape(-1, 2).T
    idx.setflags(write=False)
    return idx


def vec_skew(a):
    """b-isometric coordinates: Euclidean norm of vec equals the b-norm.
    Acts on the last two axes, so a may be a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    lam, mu = skew_index(a.shape[-1])
    return math.sqrt(2.0) * a[..., lam, mu]


def unvec_skew(v, n):
    """The skew (n, n) matrix of `vec_skew` coordinates v (m,), or one per
    row of a stack v (..., m)."""
    v = np.asarray(v, dtype=float)
    lam, mu = skew_index(n)
    a = np.zeros(v.shape[:-1] + (n, n))
    a[..., lam, mu] = v / math.sqrt(2.0)
    a[..., mu, lam] = -a[..., lam, mu]
    return a


def _skew_eigh(a):
    """mu, U, U^H with ia = U diag(mu) U^H for skew a (..., n, n)."""
    mu, U = np.linalg.eigh(1j * check_skew(a))
    return mu, U, np.conj(np.swapaxes(U, -1, -2))


def _from_eigenbasis(U, f, Uh):
    """Re(U diag(f) U^H) over the last axes: with f = F(-i mu) for the
    eigenpairs of `_skew_eigh(a)`, the matrix function F(a)."""
    return ((U * f[..., None, :]) @ Uh).real


def group_exp(a):
    """exp: o(n) -> O(n), of one skew matrix or a stack (..., n, n);
    orthogonal to rounding."""
    mu, U, Uh = _skew_eigh(a)
    return _from_eigenbasis(U, np.exp(-1j * mu), Uh)


def group_exp_derivative(a, b):
    """exp(a) (..., n, n) and exp(-a) Dexp_a[b] = int_0^1 e^{-sa} b e^{sa} ds
    (..., m, n, n) for skew a (..., n, n) and directions b (m, n, n).  In
    the eigenbasis, b_jk is scaled by e^{i delta/2} sinc(delta/2), delta =
    mu_j - mu_k: stable at equal eigenvalues, and b itself at a = 0."""
    mu, U, Uh = _skew_eigh(a)
    E = _from_eigenbasis(U, np.exp(-1j * mu), Uh)
    half = 0.5 * (mu[..., :, None] - mu[..., None, :])
    phi = (np.exp(1j * half) * np.sinc(half / math.pi))[..., None, :, :]
    U, Uh = U[..., None, :, :], Uh[..., None, :, :]
    return E, (U @ (phi * (Uh @ b @ U)) @ Uh).real


def _principal_logs(A):
    """Principal logs of a stack A (k, n, n) of orthogonal matrices, as
    (L, ok): ok (k,) marks the rows whose eigenvalues all have
    |arg| < pi - LOG_ANGLE_TOL, and L (k, n, n) holds their logs, NaN
    elsewhere.

    For such a row A + I is invertible, C = (A + I)^{-1} (A - I) is skew
    with eigenvalues i tan(t/2) over the rotation angles t of A, and
    A = exp(2 artanh C).  With iC = U diag(mu) U^H from `_skew_eigh`,
    log A = Re(U diag(-2i arctan mu) U^H): no branch cut is met, and each
    angle 2 arctan(mu) keeps full accuracy however small it is."""
    lam = np.linalg.eigvals(A)
    ok = (np.abs(np.angle(lam)) < math.pi - LOG_ANGLE_TOL).all(axis=-1)
    L = np.full(A.shape, math.nan)
    B = A[ok]
    eye = np.eye(A.shape[-1])
    C = np.linalg.solve(B + eye, B - eye)
    mu, U, Uh = _skew_eigh(0.5 * (C - np.swapaxes(C, -1, -2)))
    L[ok] = _from_eigenbasis(U, -2j * np.arctan(mu), Uh)
    return L, ok


def group_distance(u, v):
    """Geodesic distance on (O(n), b); +inf across the two components.

    u and v are (n, n) or stacks (..., n, n) that broadcast against each
    other; one pair gives a float, stacks an array of the broadcast shape.
    With lambda_k the eigenvalues of v u^T, d_b(u, v) = sqrt(sum_k
    arg(lambda_k)^2): each rotation angle t appears as e^{+-it}, which
    gives the 2 sum t^2 of b, and the -1 eigenvalues of one component come
    in pairs, angle pi each.  An orthogonal matrix is normal, so its
    eigenvalues have condition number 1 (Bauer-Fike) and every angle is
    exact to rounding, small ones included.  The product of the lambda_k
    is det(v u^T); its sign tells the components apart.  The eigenvalues
    are taken DISTANCE_BLOCK pairs at a time, so their temporaries stay
    small however many pairs broadcast.

    For n = 2 no eigenvalue is taken.  W = v u^T, if in SO(2), rotates
    by t = atan2(W_10 - W_01, W_00 + W_11) in (-pi, pi], so d_b = sqrt(2) |t|,
    and d_b = +inf where det W = W_00 W_11 - W_01 W_10 < 0.  atan2 is
    well-conditioned everywhere, so t is exact to rounding, small angles
    included.  For u = v, W_10 and W_01 are the same products summed in the
    same order, so the numerator is exactly 0 and d(e, e) = 0.0."""
    u = check_orthogonal(u)
    v = check_orthogonal(v)
    W = v @ np.swapaxes(u, -1, -2)
    if W.shape[-1] == 2:
        t = np.arctan2(W[..., 1, 0] - W[..., 0, 1], W[..., 0, 0] + W[..., 1, 1])
        det = W[..., 0, 0] * W[..., 1, 1] - W[..., 0, 1] * W[..., 1, 0]
        d = np.where(det < 0, math.inf, math.sqrt(2.0) * np.abs(t))
    else:
        flat = W.reshape(-1, *W.shape[-2:])
        d = np.concatenate([_angle_norm(flat[i:i + DISTANCE_BLOCK]) for i in
                            range(0, len(flat), DISTANCE_BLOCK)]).reshape(W.shape[:-2])
    return float(d) if d.ndim == 0 else d


def _angle_norm(W):
    """sqrt(sum_k arg(lambda_k)^2) over the eigenvalues of each orthogonal
    matrix of the stack W (..., n, n), +inf where det W < 0."""
    lam = np.linalg.eigvals(W)
    sq = np.angle(lam)
    sq *= sq
    return np.where(lam.prod(axis=-1).real < 0, math.inf, np.sqrt(sq.sum(axis=-1)))


def frobenius_lower_bound(A, B):
    """A lower bound on `group_distance(A, B)` from ||A - B||_F, for A, B in
    O(n); broadcasts over stacks (..., n, n).

    If B A^T has rotation angles t_i in [0, pi], then ||A - B||_F^2 =
    sum 8 sin^2(t_i / 2) and d_b(A, B)^2 = sum 2 t_i^2, so for A and B in
    one component of O(n)

        ||A - B||_F <= d_b(A, B) <= (pi / 2) ||A - B||_F,

    and across the components d_b = +inf.  The bound returned sits below
    ||A - B||_F by the relative FROBENIUS_SLACK and by an absolute
    10 n ORTH_TOL: group_distance accepts matrices orthogonal to ORTH_TOL,
    and on such inputs ||A - B||_F can exceed its eigenvalue-form distance
    by about n ORTH_TOL (at most 6.6e-11 n in 20,000 random pairs with
    entries perturbed by up to ORTH_TOL, n = 2 to 6).  So a test
    `group_distance(A, B) < tol` can hold only where this bound is below
    tol, and a search may skip the exact distance elsewhere without
    changing its result.
    """
    diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
    slack = diff.shape[-1] * 10.0 * ORTH_TOL
    frob = np.linalg.norm(diff, axis=(-2, -1))
    return np.maximum(frob / (1.0 + FROBENIUS_SLACK) - slack, 0.0)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# chirality splitting of o(4)

def su2_bases():
    """b-orthonormal bases of the self-dual and anti-self-dual factors of o(4)."""
    e = {(i, j): skew_basis_element(4, i, j) for i, j in skew_pairs(4)}
    plus = [e[(0, 1)] + e[(2, 3)], e[(0, 2)] - e[(1, 3)], e[(0, 3)] + e[(1, 2)]]
    minus = [e[(0, 1)] - e[(2, 3)], e[(0, 2)] + e[(1, 3)], e[(0, 3)] - e[(1, 2)]]
    plus = [a / b_norm(a) for a in plus]
    minus = [a / b_norm(a) for a in minus]
    return plus, minus


def chirality_residuals(a):
    """Fractions of the b-norm of skew a lying in each chirality factor."""
    plus, minus = su2_bases()
    na = b_norm(a)
    if na == 0:
        return 0.0, 0.0
    p = math.sqrt(sum(biinvariant_inner(a, q) ** 2 for q in plus)) / na
    m = math.sqrt(sum(biinvariant_inner(a, q) ** 2 for q in minus)) / na
    return p, m


# ---------------------------------------------------------------------------
# subgroup estimates

@dataclass
class SubgroupEstimate:
    label: str                    # trivial | finite-cyclic(k) | SO(2)-circle |
                                  # SU(2)-in-SO(4) | full-SO(n) | other
    n: int
    rank: int
    algebra_basis: list = field(default_factory=list)   # b-orthonormal skew matrices
    finite_generators: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    order: int = 0                # cyclic order for finite-cyclic(k)

    def to_json(self):
        return json.dumps({
            "class": self.label,
            "n": self.n,
            "rank": self.rank,
            "order": self.order,
            "generators": [np.asarray(g).ravel().tolist() for g in self.algebra_basis],
            "finite_generators": [np.asarray(g).ravel().tolist() for g in self.finite_generators],
            "residuals": self.residuals,
        }, sort_keys=True)

    @staticmethod
    def trivial(n):
        return SubgroupEstimate("trivial", n, 0)


def _orthonormal_algebra(M):
    """Rank-revealing orthogonalization of log vectors M (k, m), in
    b-coordinates, with singular values below SVD_TOL times the largest
    dropped."""
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-14
    if not keep.any():
        return 0, []
    M = M[keep] / norms[keep, None]
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > SVD_TOL * s[0]))
    return rank, [vt[i] for i in range(rank)]


def _bracket_residual(basis_mats):
    """Max relative component of basis brackets outside the spanned algebra."""
    if len(basis_mats) < 2:
        return 0.0
    vecs = [vec_skew(a) for a in basis_mats]
    B = np.stack(vecs, axis=0)
    proj = B.T @ np.linalg.solve(B @ B.T, B)
    worst = 0.0
    for i in range(len(basis_mats)):
        for j in range(i + 1, len(basis_mats)):
            br = basis_mats[i] @ basis_mats[j] - basis_mats[j] @ basis_mats[i]
            v = vec_skew(br)
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                continue
            out = v - proj @ v
            worst = max(worst, float(np.linalg.norm(out)) / nv)
    return worst


def classify_subgroup(elements) -> SubgroupEstimate:
    """Estimate the subgroup of O(n) generated by holonomy elements, a
    stack (k, n, n) or a list of (n, n) matrices.  The algebra is spanned
    by the principal logs of the elements within NEAR_IDENTITY of I.  Every
    one has a log: a rotation angle at or above pi - LOG_ANGLE_TOL gives
    d_b >= sqrt(2) (pi - LOG_ANGLE_TOL) > NEAR_IDENTITY.
    """
    mats = np.asarray(elements, dtype=float)
    if not len(mats):
        raise ValueError("empty sample set")
    mats = check_orthogonal(mats)
    n = mats.shape[-1]
    m_dim = n * (n - 1) // 2

    dists = group_distance(mats, np.eye(n))
    nontrivial = [(d, A) for d, A in zip(dists.tolist(), mats) if d > 1e-8]
    if not nontrivial:
        return SubgroupEstimate.trivial(n)

    L, _ = _principal_logs(mats[(dists > 1e-8) & (dists <= NEAR_IDENTITY)])
    rank, basis_vecs = _orthonormal_algebra(vec_skew(L))
    basis = [unvec_skew(v, n) for v in basis_vecs]
    residuals = {"svd_rank": rank}

    if rank == 0:
        return _classify_finite(n, nontrivial, residuals)

    br = _bracket_residual(basis)
    residuals["bracket"] = br
    if br > BRACKET_TOL:
        return SubgroupEstimate("other", n, rank, basis, [], residuals)

    if n == 2 and rank == 1:
        return SubgroupEstimate("SO(2)-circle", n, 1, basis, [], residuals)
    if rank == m_dim:
        return SubgroupEstimate(f"full-SO({n})", n, rank, basis, [], residuals)
    if n == 4 and rank == 3:
        plus_res = []
        minus_res = []
        for a in basis:
            p, mfrac = chirality_residuals(a)
            plus_res.append(mfrac)    # residual off the plus factor
            minus_res.append(p)       # residual off the minus factor
        off_plus = max(plus_res)
        off_minus = max(minus_res)
        residuals["chirality_off_plus"] = off_plus
        residuals["chirality_off_minus"] = off_minus
        if min(off_plus, off_minus) <= SVD_TOL:
            residuals["chirality"] = "self-dual" if off_plus <= off_minus else "anti-self-dual"
            return SubgroupEstimate("SU(2)-in-SO(4)", n, 3, basis, [], residuals)
    return SubgroupEstimate("other", n, rank, basis, [], residuals)


def _classify_finite(n, nontrivial, residuals):
    """nontrivial: (d_b(A, I), A) pairs."""
    ident = np.eye(n)
    finite_d = [(d, A) for d, A in nontrivial if math.isfinite(d)]
    if not finite_d:
        # all samples in the far component: report as other with generators
        return SubgroupEstimate("other", n, 0, [], [A for _, A in nontrivial[:4]], residuals)
    d0, gen = min(finite_d, key=lambda t: t[0])
    # order of the candidate generator
    order = None
    P = gen.copy()
    for k in range(1, 1001):
        near = frobenius_lower_bound(check_orthogonal(P), ident) <= 10 * FINITE_TOL
        if near and group_distance(P, ident) <= 10 * FINITE_TOL:
            order = k
            break
        P = P @ gen
    if order is None:
        return SubgroupEstimate("other", n, 0, [], [gen], residuals)
    powers = np.array([np.linalg.matrix_power(gen, j) for j in range(order)])
    worst = 0.0
    for _, A in nontrivial:
        worst = max(worst, float(group_distance(A, powers).min()))
    residuals["power_match"] = worst
    if worst <= 10 * FINITE_TOL:
        return SubgroupEstimate(f"finite-cyclic({order})", n, 0, [], [gen],
                                residuals, order=order)
    return SubgroupEstimate("other", n, 0, [], [gen], residuals)


# ---------------------------------------------------------------------------
# quotient pseudo-distance

def quotient_distance(u, v, H: SubgroupEstimate):
    """inf over h in the estimated subgroup H of d_b(h u, v), exactly; u and
    v are (n, n) or stacks (..., n, n) that broadcast, and one pair gives a
    float.  By bi-invariance it is d_b(w, H) with w = v u^T.  trivial gives
    d_b(u, v); SO(2)-circle and full-SO(n) act transitively on a component,
    so give 0, or +inf across the components; finite-cyclic(k) takes the
    least d_b(g^j u, v) over the k powers; `other` raises ValueError.

    SU(2)-in-SO(4): its algebra h is one of the two commuting, b-orthogonal
    ideals of o(4) = su(2)+ (+) su(2)- (`su2_bases`; `residuals["chirality"]`
    says which), and k, with b-orthonormal basis E_1, E_2, E_3, is the
    other; K = exp(k) = SU(2) commutes with H.  A shortest path from H to w
    is h exp(sX), X = X_h + X_k, with d = |X|_b >= |X_k|_b, and as X_h and
    X_k commute, exp(X_k) lies in H w.  So R_kl = b(E_k, w E_l w^T), Ad_w on
    k, is in SO(3) and equals Ad_{exp X_k} on k.  As [E_1, E_2] = +-E_3
    cyclically, Ad_{exp(tE)} for b-unit E in k rotates k by the angle t, so
    the rotation angle of R, atan2(|axial R|, (tr R - 1)/2), is at most d.
    Conversely exp(X_k) with |X_k|_b that angle has the same R, so
    w exp(-X_k) centralizes K and lies in H: d is that angle.  It ranges
    over [0, pi], so a component of O(4)/SU(2) has diameter pi, attained
    at exp(pi E_1).  Where det w < 0 it is +inf, as H lies in SO(4).
    """
    u = check_orthogonal(u)
    v = check_orthogonal(v)
    n = u.shape[-1]
    label = H.label
    if label == "trivial":
        return group_distance(u, v)
    if label == "SO(2)-circle" or label.startswith("full-SO("):
        d = np.where(np.isinf(group_distance(u, v)), math.inf, 0.0)
    elif label.startswith("finite-cyclic"):
        gen = H.finite_generators[0]
        powers = [np.eye(n)]
        for _ in range(H.order - 1):
            powers.append(powers[-1] @ gen)
        lead = np.broadcast_shapes(u.shape[:-2], v.shape[:-2])
        moved = np.array(powers).reshape((len(powers),) + (1,) * len(lead) + (n, n)) @ u
        d = group_distance(moved, v).min(axis=0)
    elif label == "SU(2)-in-SO(4)":
        plus, minus = su2_bases()
        E = np.array(minus if H.residuals["chirality"] == "self-dual" else plus)
        w = (v @ np.swapaxes(u, -1, -2))[..., None, :, :]
        # b(a1, a2) = sum_ij a1_ij a2_ij for skew a1, a2
        R = (E[:, None] * (w @ E @ np.swapaxes(w, -1, -2))[..., None, :, :, :]).sum(axis=(-2, -1))
        axial = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                          R[..., 1, 0] - R[..., 0, 1]], axis=-1)
        angle = np.arctan2(0.5 * np.linalg.norm(axial, axis=-1),
                           0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0))
        d = np.where(np.linalg.det(w[..., 0, :, :]) < 0, math.inf, angle)
    else:
        raise ValueError(f"no exact quotient distance for the class {label!r}")
    return float(d) if d.ndim == 0 else d
