"""The lifting metric on an orthonormal frame bundle, as an explicit
coordinate metric on chart x exp-coordinates of O(n).

Frames are g'-orthonormal (g' plays the smoothed-metric role and induces
the horizontal distribution through its Levi-Civita connection); lengths of
horizontal vectors come from the base metric g.  A chart point is
(x, t^{lam mu}) with frame matrix

    E(x, t) = S(x) exp(T(t)) A0,     T(t) = sum t^{lm} e^{lm},

where S(x) is the reference section (Gram-Schmidt of the coordinate basis
under g') and A0 the anchor frame coordinate.  The connection form on chart
basis vectors is exact:

    omega(d/dx^i) = Ad_{Q^-1} C_i(x),          Q = exp(T) A0,
    omega(d/dt^a) = Ad_{A0^-1}[exp(-T) Dexp_T[B_a]],

with C_i = S^-1 (d_i S + Gamma'[e_i] S) the section's connection
coefficients (Cholesky-differentiated, so the whole first-order
construction is exact) and Dexp the Frechet derivative of the matrix
exponential.  The metric is then

    gt(U, V) = g(pi_* U, pi_* V) + b(omega(U), omega(V)).

The chart evaluates a stack of chart points (B, N) at once, in two halves
that meet per row.  The base half (the SPD check of g', the section and its
partials, Gamma', C_i and g) runs once per distinct base row x, the fiber
half (exp(T) and every exp(-T) Dexp_T[B_a], from one eigendecomposition in
`ortho.group_exp_derivative`) once per distinct fiber row t.  A stencil
shares most of its base and fiber rows, and a row's value does not depend
on the other rows of its stack.

Valid for |t|_b < pi/2; curvature evaluations should stay within pi/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ortho
from .curvature import NumericMetric
from .holonomy import section_connection_coeffs, section_frame
from .metric import MetricSpec, _jet_rows, require_spd

DIMENSION_BUDGET = 10


class ChartBudgetError(ValueError):
    pass


@dataclass
class FramePoint:
    base: np.ndarray
    frame: np.ndarray       # A in O(n); the frame is s(base) . A

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.frame = ortho.check_orthogonal(np.asarray(self.frame, dtype=float))

    @staticmethod
    def anchor(base, n):
        return FramePoint(np.asarray(base, dtype=float), np.eye(n))


def _distinct_rows(A):
    """The distinct rows of the 2-D array A, in order of first appearance,
    and for each row of A the index of its distinct row.  Rows are equal
    when their entries compare equal, as in `np.unique(A, axis=0)`; a
    stable lexicographic sort puts each group's first row first."""
    order = np.lexsort(A.T[::-1]) if A.shape[1] else np.arange(len(A))
    S = A[order]
    new = np.ones(len(A), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    group = np.empty(len(A), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return A[first[by_first]], rank[group]


class LiftedMetricChart:
    """Evaluator of the lifting metric in induced coordinates (x, t)."""

    def __init__(self, g: MetricSpec, gp: MetricSpec, anchor: FramePoint):
        if g.dim != gp.dim:
            raise ValueError("base and connection metrics must share the chart")
        if g.coords != gp.coords:
            raise ValueError("base and connection metrics must share coordinates")
        n = g.dim
        m = n * (n - 1) // 2
        if n + m > DIMENSION_BUDGET:
            raise ChartBudgetError(
                f"total dimension {n + m} exceeds the budget {DIMENSION_BUDGET}")
        self.g = g
        self.gp = gp
        self.anchor = anchor
        self.n = n
        self.m = m
        self.dim = n + m
        self.pairs = ortho.skew_pairs(n)
        self.basis = np.array(ortho.skew_basis(n)).reshape(m, n, n)

    # -- chart bookkeeping ---------------------------------------------------

    def split(self, y):
        y = np.asarray(y, dtype=float)
        return y[: self.n], y[self.n:]

    def chart_point(self, t=None):
        """The chart point over the anchor's base point, at fiber
        coordinates t (the anchor frame itself by default); over each row
        of a stacked base (B, n), one chart point per row, (B, N)."""
        base = self.anchor.base
        t = np.zeros(base.shape[:-1] + (self.m,)) if t is None else np.asarray(t, dtype=float)
        return np.concatenate([base, t], axis=-1)

    def skew_from_t(self, t):
        """T(t) for t (m,), or one T per row of a stack (..., m)."""
        t = np.asarray(t, dtype=float)
        lam, mu = ortho.skew_index(self.n)
        T = np.zeros(t.shape[:-1] + (self.n, self.n))
        T[..., lam, mu] += t
        T[..., mu, lam] -= t
        return T

    # -- connection form -----------------------------------------------------

    def _base_half(self, X):
        """The connection coefficients C_i (k, n, n, n) of the reference
        section at the distinct base rows X (k, n); the first row whose jet
        fails (`_jet_rows`) raises its error."""
        (G, dG), errors = _jet_rows(self.gp, X, 1)
        if errors:
            raise errors[min(errors)]
        require_spd(G, X)
        return section_connection_coeffs(G, dG)

    def _omega_rows(self, Y):
        """omega on each chart basis vector at each row of the stack Y (B, N),
        (B, n, n, n) and (B, m, n, n), with the distinct base rows X and the
        index of each row's one."""
        X, xi = _distinct_rows(Y[:, :self.n])
        t, ti = _distinct_rows(Y[:, self.n:])
        C = self._base_half(X)
        E0, dexp = ortho.group_exp_derivative(self.skew_from_t(t), self.basis)
        A0 = self.anchor.frame
        Q = E0[ti] @ A0
        om_x = np.swapaxes(Q, -1, -2)[:, None] @ C[xi] @ Q[:, None]
        om_t = (A0.T @ dexp @ A0)[ti]
        return om_x, om_t, X, xi

    def omega_basis(self, y):
        """omega on each chart basis vector at the chart point y (N,), or at
        each row of a stack (B, N): arrays (..., n, n, n) and (..., m, n, n)."""
        y = np.asarray(y, dtype=float)
        om_x, om_t, _, _ = self._omega_rows(y.reshape(-1, self.dim))
        lead = y.shape[:-1]
        return om_x.reshape(lead + om_x.shape[1:]), om_t.reshape(lead + om_t.shape[1:])

    # -- the metric ----------------------------------------------------------

    def metric_matrix(self, y):
        """Coordinate components of the lifting metric at the chart point y
        (N,), or at each row of a stack (B, N): (N, N) or (B, N, N)."""
        y = np.asarray(y, dtype=float)
        om_x, om_t, X, xi = self._omega_rows(y.reshape(-1, self.dim))
        n = self.n
        (G,), errors = _jet_rows(self.g, X, 0)
        if errors:
            raise errors[min(errors)]
        G = G[xi]
        vx = ortho.vec_skew(om_x)
        vt = ortho.vec_skew(om_t)
        out = np.empty((len(G), self.dim, self.dim))
        out[:, :n, :n] = G + vx @ np.swapaxes(vx, -1, -2)
        out[:, :n, n:] = vx @ np.swapaxes(vt, -1, -2)
        out[:, n:, :n] = np.swapaxes(out[:, :n, n:], -1, -2)
        out[:, n:, n:] = vt @ np.swapaxes(vt, -1, -2)
        return out.reshape(y.shape[:-1] + out.shape[1:])

    def numeric(self):
        return NumericMetric(self.metric_matrix, self.dim)

    # -- lifts, fundamental fields, adapted frame -----------------------------

    def lift(self, y, v=None, a=None):
        """Chart components at y of the tangent with pi_* = v and omega = a:
        the horizontal lift of the base vector v plus the fundamental field
        of a in o(n), either of which may be left out.  At a point y (N,),
        v (n,) and a (n, n) give one tangent (N,), and columns v (n, k) and
        a stack a (k, n, n) give k tangents, the columns of an (N, k)
        matrix.  At a stack y (B, N), v (B, n) and a (B, n, n) give one
        tangent per row, (B, N), each bitwise the row's point lift.  Every
        form makes one omega_basis call and one (batched) solve."""
        y = np.asarray(y, dtype=float)
        om_x, om_t = self.omega_basis(y)
        if y.ndim == 2:
            v = np.zeros((len(y), self.n)) if v is None else np.asarray(v, dtype=float)
            rhs = -ortho.vec_skew(np.einsum("ki,kiab->kab", v, om_x))
            if a is not None:
                rhs += ortho.vec_skew(a)
            tau = np.linalg.solve(np.swapaxes(ortho.vec_skew(om_t), -1, -2), rhs[..., None])
            return np.concatenate([v, tau[..., 0]], axis=1)
        columns = np.ndim(v) == 2 or np.ndim(a) == 3
        k = np.shape(v)[1] if np.ndim(v) == 2 else len(a) if np.ndim(a) == 3 else 1
        v = np.zeros((self.n, k)) if v is None else np.asarray(v, dtype=float).reshape(self.n, k)
        # omega(v, tau) = a:  vec_skew(om_t)^T tau = vec_skew(a) - vec_skew(v . om_x)
        rhs = -ortho.vec_skew(np.einsum("ik,iab->kab", v, om_x))
        if a is not None:
            rhs += ortho.vec_skew(np.reshape(a, (k, self.n, self.n)))
        tau = np.linalg.solve(ortho.vec_skew(om_t).T, rhs.T)
        out = np.concatenate([v, tau])
        return out if columns else out[:, 0]

    def adapted_frame(self, y):
        """Columns: lifts of the g-orthonormalized coordinate basis, then the
        b-orthonormal fundamental fields T_lm / sqrt(2)."""
        x, _ = self.split(y)
        n, m = self.n, self.m
        v = np.concatenate([section_frame(self.g, x), np.zeros((n, m))], axis=1)
        a = np.concatenate([np.zeros((n, n, n)), self.basis / math.sqrt(2.0)])
        return self.lift(y, v, a)

    def metric_in_adapted_frame(self, y):
        P = self.adapted_frame(y)
        return P.T @ self.metric_matrix(y) @ P

    def vertical_block_fundamental(self, y):
        """Metric on the unnormalized fundamental fields T_lm (contract: 2 I)."""
        P = self.lift(y, a=self.basis)
        return P.T @ self.metric_matrix(y) @ P

    # -- export ---------------------------------------------------------------

    def export_grid(self, path, bounds, counts):
        """Sampled components on a coordinate lattice, .gmet-style text."""
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([mm.ravel() for mm in mesh], axis=-1)
        names = list(self.g.coords) + [f"t{i}{j}" for i, j in self.pairs]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# lifted metric grid; dim {self.dim}\n")
            fh.write("# coords " + " ".join(names) + "\n")
            comp_names = [f"g_{a}_{b}" for a in range(self.dim) for b in range(a, self.dim)]
            fh.write("# columns: " + " ".join(names + comp_names) + "\n")
            upper = np.triu_indices(self.dim)
            for p, vals in zip(points, self.metric_matrix(points)[:, upper[0], upper[1]]):
                fh.write(" ".join(repr(float(v)) for v in [*p, *vals]) + "\n")

