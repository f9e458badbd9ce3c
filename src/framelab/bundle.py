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

Valid for |t|_b < pi/2; curvature evaluations should stay within pi/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, expm_frechet

from . import ortho
from .curvature import NumericMetric, assemble_gamma_jet
from .holonomy import cholesky_section, section_frame
from .metric import MetricSpec

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


def section_with_derivative(G, dG):
    """Reference section S = chol(G')^-T and its exact partials dS[i], from
    G' and its partials dG[i] at one point."""
    S = cholesky_section(G)
    Linv = S.T
    dS = np.empty_like(dG)
    for i in range(len(dG)):
        M = Linv @ dG[i] @ Linv.T
        Phi = np.tril(M, -1) + 0.5 * np.diag(np.diag(M))
        dS[i] = -S @ Phi.T
    return S, dS


def section_connection_coeffs(gp: MetricSpec, x):
    """C_i = S^-1 (d_i S + Gamma'[e_i] S), skew matrices, one per direction."""
    x = np.asarray(x, dtype=float)
    G = gp.check_spd(x)
    dG = gp.derivative_fn(1)(x)
    S, dS = section_with_derivative(G, dG)
    gamma = assemble_gamma_jet(G, dG)[0]
    Sinv = np.linalg.inv(S)
    C = np.empty_like(dS)
    for i in range(len(dS)):
        C[i] = Sinv @ (dS[i] + gamma[:, i, :] @ S)
    return S, C


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
        self.basis = ortho.skew_basis(n)

    # -- chart bookkeeping ---------------------------------------------------

    def split(self, y):
        y = np.asarray(y, dtype=float)
        return y[: self.n], y[self.n:]

    def chart_point(self, base=None, t=None):
        base = self.anchor.base if base is None else np.asarray(base, dtype=float)
        t = np.zeros(self.m) if t is None else np.asarray(t, dtype=float)
        return np.concatenate([base, t])

    def skew_from_t(self, t):
        T = np.zeros((self.n, self.n))
        for a, (i, j) in enumerate(self.pairs):
            T[i, j] += t[a]
            T[j, i] -= t[a]
        return T

    def frame_matrix(self, y):
        """Columns are the frame vectors in coordinate components."""
        x, t = self.split(y)
        S = section_frame(self.gp, x)
        return S @ expm(self.skew_from_t(t)) @ self.anchor.frame

    # -- connection form -----------------------------------------------------

    def omega_basis(self, y):
        """omega on each chart basis vector: arrays (n, n, n) and (m, n, n)."""
        x, t = self.split(y)
        S, C = section_connection_coeffs(self.gp, x)
        A0 = self.anchor.frame
        T = self.skew_from_t(t)
        n, m = self.n, self.m
        if np.abs(T).max() == 0.0:
            E0 = np.eye(n)
            phis = self.basis
        else:
            E0 = expm(T)
            E0inv = E0.T
            phis = []
            for B in self.basis:
                _, Lf = expm_frechet(T, B)
                phis.append(E0inv @ Lf)
        Q = E0 @ A0
        om_x = np.einsum("ab,iac,cd->ibd", Q, C, Q)
        om_t = np.stack([A0.T @ ph @ A0 for ph in phis], axis=0)
        return om_x, om_t

    def omega(self, y, chart_vec):
        om_x, om_t = self.omega_basis(y)
        v = np.asarray(chart_vec, dtype=float)
        return (np.einsum("i,iab->ab", v[: self.n], om_x)
                + np.einsum("a,aqr->qr", v[self.n:], om_t))

    # -- the metric ----------------------------------------------------------

    def metric_matrix(self, y):
        """Coordinate components of the lifting metric at the chart point."""
        x, _ = self.split(y)
        om_x, om_t = self.omega_basis(y)
        n, m = self.n, self.m
        G = self.g.evaluate(x)
        vx = np.stack([ortho.vec_skew(om_x[i]) for i in range(n)], axis=0)
        vt = np.stack([ortho.vec_skew(om_t[a]) for a in range(m)], axis=0)
        out = np.empty((n + m, n + m))
        out[:n, :n] = G + vx @ vx.T
        out[:n, n:] = vx @ vt.T
        out[n:, :n] = out[:n, n:].T
        out[n:, n:] = vt @ vt.T
        return out

    def numeric(self):
        return NumericMetric(self.metric_matrix, self.dim)

    # -- lifts, fundamental fields, adapted frame -----------------------------

    def _omega_t_matrix(self, y):
        _, om_t = self.omega_basis(y)
        return np.stack([ortho.vec_skew(om_t[a]) for a in range(self.m)], axis=1)

    def horizontal_lift(self, y, v):
        """Chart components of the horizontal lift of base vector v at y."""
        om_x, om_t = self.omega_basis(y)
        v = np.asarray(v, dtype=float)
        W = np.stack([ortho.vec_skew(om_t[a]) for a in range(self.m)], axis=1)
        rhs = -ortho.vec_skew(np.einsum("i,iab->ab", v, om_x))
        tau = np.linalg.solve(W, rhs)
        return np.concatenate([v, tau])

    def fundamental_vector(self, y, a):
        """Chart components of the fundamental field of a in o(n) at y."""
        W = self._omega_t_matrix(y)
        tau = np.linalg.solve(W, ortho.vec_skew(a))
        return np.concatenate([np.zeros(self.n), tau])

    def adapted_frame(self, y):
        """Columns: lifts of the g-orthonormalized coordinate basis, then the
        b-orthonormal fundamental fields T_lm / sqrt(2)."""
        x, _ = self.split(y)
        F = section_frame(self.g, x)    # g-ON base frame
        cols = [self.horizontal_lift(y, F[:, i]) for i in range(self.n)]
        for B in self.basis:
            cols.append(self.fundamental_vector(y, B / math.sqrt(2.0)))
        return np.stack(cols, axis=1)

    def metric_in_adapted_frame(self, y):
        P = self.adapted_frame(y)
        return P.T @ self.metric_matrix(y) @ P

    def vertical_block_fundamental(self, y):
        """Metric on the unnormalized fundamental fields T_lm (contract: 2 I)."""
        cols = [self.fundamental_vector(y, B) for B in self.basis]
        P = np.stack(cols, axis=1)
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
            for p in points:
                Gt = self.metric_matrix(p)
                vals = [Gt[a, b] for a in range(self.dim) for b in range(a, self.dim)]
                row = list(p) + vals
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

