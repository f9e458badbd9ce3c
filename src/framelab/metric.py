"""Metric tensor fields on a single coordinate chart.

A MetricSpec is a chart (coordinate box) plus a symmetric matrix of
symbolic expressions.  Instances are immutable after construction and all
evaluation is reentrant.  The `.gmet` text format is::

    dim 2; coords r phi;
    params a=0.7;            # optional
    domain r in [0.01, 3];   # optional, per coordinate
    g = [[1, 0], [0, a^2*r^2]];

with ``#`` comments and free whitespace.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from . import expr as ex
from .expr import Expr, ParseError, _plain


class MetricError(ValueError):
    pass


class NotSPDError(MetricError):
    """Metric fails the symmetric-positive-definite test at a point."""


#: relative floor for the smallest eigenvalue in the SPD test
SPD_EIG_TOL = 1e-12


def require_spd(G, points):
    """Raise NotSPDError unless every matrix of the stack G (k, n, n) is
    usably SPD; points[i] names G[i] in the message.  The first failing
    matrix in stack order is reported, with the first test it fails:
    symmetry (`np.allclose` at absolute 1e-12 of the largest entry, at
    least 1e-12), then the smallest eigenvalue against SPD_EIG_TOL times
    the largest, reported as "not positive definite" when it is <= 0 and
    as "too ill-conditioned" when it is positive."""
    GT = np.swapaxes(G, -1, -2)
    atol = 1e-12 * np.fmax(1.0, np.abs(G).max(axis=(-2, -1)))
    asym = ~np.isclose(G, GT, atol=atol[:, None, None]).all(axis=(-2, -1))
    H = 0.5 * (G + GT)
    H[asym] = np.eye(G.shape[-1])   # eigenvalues only of the symmetric ones
    w = np.linalg.eigvalsh(H)
    lo, hi = w[:, 0], w[:, -1]
    bad = asym | (lo <= SPD_EIG_TOL * np.maximum(np.abs(hi), 1e-300))
    if not bad.any():
        return
    k = int(np.argmax(bad))
    at = _plain(points[k])
    if asym[k]:
        raise NotSPDError(f"metric not symmetric at {at}")
    if lo[k] <= 0:
        raise NotSPDError(f"metric not positive definite at {at}: eigenvalues {w[k]}")
    raise NotSPDError(f"metric too ill-conditioned at {at}: cond {hi[k] / lo[k]:.3e}")


def _finite_rows(arrays):
    """For stacks (B, ...) of values at the same B points, whether every
    value of each row is finite."""
    return np.logical_and.reduce([np.isfinite(a).reshape(len(a), -1).all(axis=1)
                                  for a in arrays])


def _jet_rows(m, X, order):
    """`m.derivative_fn(order)` at the rows of X (B, n), m a MetricSpec or a
    NumericMetric, from one stacked call.  Returns (derivs, errors), errors
    {row: exception} for the rows whose evaluation failed; their rows of
    derivs hold zeros.

    A row with a non-finite value is evaluated again as a point: it fails
    with the ExprEvalError or LinAlgError raised there, or with "expression
    not finite" if the point values are not finite either, and otherwise
    takes the point values.  A source that fails a whole stack for one bad
    row (a NumericMetric whose function raises) has every row evaluated so.
    Each caller decides what a failed row means."""
    jet = m.derivative_fn(order)
    try:
        derivs = jet(X)
        redo = (() if all(np.isfinite(d).all() for d in derivs)
                else np.flatnonzero(~_finite_rows(derivs)))
    except (ex.ExprEvalError, np.linalg.LinAlgError):
        derivs = [np.zeros((len(X),) + (m.dim,) * (k + 2)) for k in range(order + 1)]
        redo = range(len(X))
    errors = {}
    for k in redo:
        # plain floats: the point binding runs faster on them than on
        # numpy scalars, with the same values
        x = X[k].tolist()
        try:
            vals = jet(x)
            if not all(np.isfinite(v).all() for v in vals):
                raise ex.ExprEvalError(f"expression not finite at {_plain(x)}")
        except (ex.ExprEvalError, np.linalg.LinAlgError) as exc:
            errors[k] = exc
            vals = [0.0] * len(derivs)
        for d, v in zip(derivs, vals):
            d[k] = v
    return derivs, errors


def _upper_pairs(n):
    """The upper-triangle components (i, j), i <= j, in row-major order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(eq=False)
class MetricSpec:
    dim: int
    coords: tuple
    components: tuple            # dim x dim nested tuple of Expr, stored simplified
    domain: tuple = None         # dim pairs (lo, hi); None -> unbounded
    params: dict = field(default_factory=dict)
    periods: dict = field(default_factory=dict)   # coord name -> period (runtime metadata)
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise MetricError("dim must be a positive integer")
        self.coords = tuple(self.coords)
        if len(self.coords) != self.dim:
            raise MetricError(f"dim {self.dim} but {len(self.coords)} coordinate names")
        if len(set(self.coords)) != self.dim:
            raise MetricError("duplicate coordinate names")
        written = tuple(tuple(row) for row in self.components)
        if len(written) != self.dim or any(len(row) != self.dim for row in written):
            raise MetricError(f"component matrix must be {self.dim}x{self.dim}")
        if self.domain is None:
            self.domain = tuple((-math.inf, math.inf) for _ in range(self.dim))
        else:
            dom = tuple((float(lo), float(hi)) for lo, hi in self.domain)
            if len(dom) != self.dim:
                raise MetricError("domain must give one interval per coordinate")
            for lo, hi in dom:
                if not lo < hi:
                    raise MetricError(f"empty domain interval [{lo}, {hi}]")
            self.domain = dom
        # simplified once, here: every later reader takes the stored trees
        self.components = tuple(tuple(ex.simplify(e) for e in row) for row in written)
        self._check_symmetry()
        self._check_bindings(written)
        self._jets = {}
        self._levels = {0: {(): tuple(self.components[i][j]
                                      for i, j in _upper_pairs(self.dim))}}

    # -- construction checks ------------------------------------------------

    def _check_symmetry(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                a, b = self.components[i][j], self.components[j][i]
                if a == b:
                    continue
                if not self._numerically_equal(a, b):
                    raise MetricError(
                        f"component matrix not symmetric: g[{i}][{j}] = {a} "
                        f"but g[{j}][{i}] = {b}")

    def _numerically_equal(self, a, b, samples=50, tol=1e-12):
        rng = np.random.default_rng(20240517)
        pts = self.sample_interior(rng, samples)
        fa = ex.compile_exprs([a, b], self.coords, self.params)
        for p in pts:
            try:
                va, vb = fa(p)
            except ex.ExprEvalError:
                continue
            scale = max(1.0, abs(va), abs(vb))
            if abs(va - vb) > tol * scale:
                return False
        return True

    def _check_bindings(self, written):
        """Every symbol of the components as written (before simplifying)
        is a coordinate or a parameter."""
        allowed = set(self.coords) | set(self.params)
        for row in written:
            for e in row:
                extra = ex.free_symbols(e) - allowed
                if extra:
                    raise MetricError(
                        f"unbound parameter(s) {sorted(extra)} in component {e}")

    # -- evaluation ----------------------------------------------------------

    def _flat(self):
        return [self.components[i][j] for i in range(self.dim) for j in range(self.dim)]

    def evaluate(self, point):
        """Metric matrix at a chart point (n,), as an (n, n) float array, or
        at each row of a stack (B, n), as (B, n, n).  A point raises
        ExprEvalError where a component is undefined or not finite; a stack
        row there holds NaN or inf instead (see `expr.compile_exprs`)."""
        return self._jet(0)(np.asarray(point, dtype=float))[0]

    def _level(self, order, memo):
        """{sorted multi-index: the n(n+1)/2 upper-triangle partials} of
        the given order, each the partial one order below differentiated by
        the index's last coordinate.  Levels are kept; threads that race to
        fill one build equal levels, and all get the first one stored."""
        level = self._levels.get(order)
        if level is None:
            prev = self._level(order - 1, memo)
            level = {idx: tuple(ex._diff(e, self.coords[idx[-1]], memo)
                                for e in prev[idx[:-1]])
                     for idx in combinations_with_replacement(range(self.dim), order)}
            level = self._levels.setdefault(order, level)
        return level

    def _derivative_exprs(self, order):
        """All order-th partials of the components, flat, in the order of
        their `derivative_fn` array: by reference to one partial per sorted
        multi-index and upper-triangle component."""
        level = self._level(order, {})
        n = self.dim
        slot = {pair: k for k, pair in enumerate(_upper_pairs(n))}
        return [level[tuple(sorted(idx))][slot[min(i, j), max(i, j)]]
                for idx in product(range(n), repeat=order)
                for i in range(n) for j in range(n)]

    def _jet(self, order):
        """The compiled evaluator of `derivative_fn(order)`, kept per order:
        one program over the components and every partial up to `order`."""
        fn = self._jets.get(order)
        if fn is not None:
            return fn
        exprs = self._flat()
        for k in range(1, order + 1):
            exprs += self._derivative_exprs(k)
        program = ex.compile_exprs(exprs, self.coords, self.params)
        n = self.dim
        shapes = [(n,) * (k + 2) for k in range(order + 1)]
        ends = np.cumsum([n ** (k + 2) for k in range(order + 1)]).tolist()
        starts = [0] + ends[:-1]

        def fn(point):
            vals = program(point)
            if isinstance(vals, np.ndarray):
                # C-contiguous, as the program's own rows, so that a row's
                # later products do not depend on the layout
                return [np.ascontiguousarray(vals[:, a:b]).reshape((len(vals),) + s)
                        for a, b, s in zip(starts, ends, shapes)]
            vals = np.array(vals, dtype=float)
            return [vals[a:b].reshape(s) for a, b, s in zip(starts, ends, shapes)]

        return self._jets.setdefault(order, fn)

    def derivative_fn(self, order):
        """Compiled evaluator of the jet of the components to `order`: G
        and all its partials up to that order, from one program in which
        every distinct subexpression is computed once.

        Returns a callable taking a point (n,) to the list [G, dG, ...,
        d^order G], the k-th partials of shape (n,)*k + (n, n) with the
        leading axes the differentiation directions, or a stack (B, n) to
        the list of their stacks (B,) + shape, failed rows non-finite as in
        `evaluate`.  A point raises the ExprEvalError of the program's
        first undefined operation, which may lie in any order.
        """
        return self._jet(order)

    def wrap_point(self, point):
        """Translate periodic coordinates back into their base interval, of
        a point (n,) or of each row of a stack (B, n)."""
        q = np.array(point, dtype=float)
        for i, c in enumerate(self.coords):
            per = self.periods.get(c)
            if per:
                lo = self.domain[i][0]
                base = lo if math.isfinite(lo) else 0.0
                q[..., i] = base + ((q[..., i] - base) % per)
        return q

    def in_domain(self, point, tol=0.0, wrap=False):
        """Whether a point (n,) lies in the domain widened by tol, or for a
        stack (B, n) whether each row does, periodic coordinates wrapped
        first if asked; a NaN coordinate is not outside."""
        point = np.asarray(point, dtype=float)
        if wrap:
            point = self.wrap_point(point)
        lo, hi = np.array(self.domain, dtype=float).T
        outside = ((point < lo - tol) | (point > hi + tol)).any(axis=-1)
        return ~outside if point.ndim == 2 else not outside

    def check_spd(self, point):
        """Raise NotSPDError unless the metric is usably SPD at the point."""
        g = self.evaluate(point)
        require_spd(g[None], [point])
        return g

    def sample_interior(self, rng, count, margin=0.05):
        """count random points in the domain interior (margin fraction held
        back), as one (count, n) array from count * n draws of rng.random
        in row-major order; an infinite bound counts as -2 or 2."""
        lo, hi = np.array(self.domain, dtype=float).T
        lo = np.where(np.isfinite(lo), lo, -2.0)
        span = np.where(np.isfinite(hi), hi, 2.0) - lo
        return lo + span * (margin + (1 - 2 * margin) * rng.random((count, self.dim)))

    def grid_interior(self, per_axis=10):
        """A per_axis^n lattice in the domain interior, 5% held back at each
        end of every axis."""
        margin = 0.05
        axes = []
        for lo, hi in self.domain:
            lo_eff = lo if math.isfinite(lo) else -2.0
            hi_eff = hi if math.isfinite(hi) else 2.0
            span = hi_eff - lo_eff
            axes.append(np.linspace(lo_eff + margin * span, hi_eff - margin * span, per_axis))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def validate_spd_on_grid(self, per_axis=10):
        for p in self.grid_interior(per_axis=per_axis):
            self.check_spd(p)



# ---------------------------------------------------------------------------
# .gmet parsing and printing

def parse_metric(source):
    """Parse `.gmet` text into a MetricSpec."""
    tokens = ex._tokenize(source)
    parser = ex._Parser(tokens)

    dim = None
    coords = None
    params = {}
    domain = {}
    components = None

    def err(msg, tok):
        raise ParseError(msg, tok.line, tok.col)

    while parser.peek().kind != "eof":
        tok = parser.next()
        if tok.kind == ";":
            continue
        if tok.kind != "name":
            err(f"expected a statement keyword, found {tok.text!r}", tok)
        word = tok.text
        if word == "dim":
            num = parser.expect("number")
            try:
                dim = int(num.text)
            except ValueError:
                err(f"dim must be an integer, found {num.text[:40]!r}", num)
        elif word == "coords":
            coords = []
            while parser.peek().kind == "name":
                coords.append(parser.next().text)
        elif word == "params":
            while parser.peek().kind == "name":
                pname = parser.next().text
                parser.expect("=")
                sign = 1.0
                if parser.peek().kind == "-":
                    parser.next()
                    sign = -1.0
                pval = parser.expect("number")
                params[pname] = sign * ex._float_literal(pval)
        elif word == "domain":
            while parser.peek().kind == "name":
                cname = parser.next().text
                kw = parser.expect("name")
                if kw.text != "in":
                    err("expected 'in' after coordinate name", kw)
                parser.expect("[")
                lo = _parse_bound(parser)
                parser.expect(",")
                hi = _parse_bound(parser)
                parser.expect("]")
                domain[cname] = (lo, hi)
        elif word == "g":
            parser.expect("=")
            components = _parse_matrix(parser)
        else:
            err(f"unknown statement {word!r}", tok)

    first = tokens[0]
    if dim is None:
        raise ParseError("missing 'dim' statement", first.line, first.col)
    if coords is None:
        raise ParseError("missing 'coords' statement", first.line, first.col)
    if components is None:
        raise ParseError("missing 'g =' statement", first.line, first.col)
    if len(coords) != dim:
        raise ParseError(f"dim {dim} but {len(coords)} coordinates", first.line, first.col)
    if len(components) != dim or any(len(r) != dim for r in components):
        raise ParseError(f"component matrix is not {dim}x{dim}", first.line, first.col)

    dom = None
    if domain:
        unknown = set(domain) - set(coords)
        if unknown:
            raise ParseError(f"domain for unknown coordinate(s) {sorted(unknown)}",
                             first.line, first.col)
        dom = tuple(domain.get(c, (-math.inf, math.inf)) for c in coords)

    try:
        return MetricSpec(dim, tuple(coords), components, dom, params)
    except MetricError as e:
        raise ParseError(str(e), first.line, first.col) from None


def _parse_bound(parser):
    tok = parser.peek()
    sign = 1.0
    if tok.kind == "-":
        parser.next()
        sign = -1.0
    tok = parser.next()
    if tok.kind == "name" and tok.text == "inf":
        return sign * math.inf
    if tok.kind == "number":
        return sign * ex._float_literal(tok)
    raise ParseError(f"expected a number or inf, found {tok.text!r}", tok.line, tok.col)


def _parse_matrix(parser):
    parser.expect("[")
    rows = []
    while True:
        parser.expect("[")
        row = []
        while True:
            row.append(parser.parse_expr())
            if parser.peek().kind == ",":
                parser.next()
                continue
            break
        parser.expect("]")
        rows.append(row)
        if parser.peek().kind == ",":
            parser.next()
            continue
        break
    parser.expect("]")
    return rows


def print_metric(m):
    """Canonical `.gmet` text for a MetricSpec (round-trips through parse)."""
    lines = [f"dim {m.dim};", "coords " + " ".join(m.coords) + ";"]
    if m.params:
        pieces = " ".join(f"{k}={repr(float(v))}" for k, v in sorted(m.params.items()))
        lines.append(f"params {pieces};")
    for c, (lo, hi) in zip(m.coords, m.domain):
        if math.isfinite(lo) or math.isfinite(hi):
            lo_s = repr(lo) if math.isfinite(lo) else "-inf"
            hi_s = repr(hi) if math.isfinite(hi) else "inf"
            lines.append(f"domain {c} in [{lo_s}, {hi_s}];")
    rows = []
    for i in range(m.dim):
        row = ", ".join(ex.to_str(e) for e in m.components[i])
        rows.append(f"[{row}]")
    lines.append("g = [" + ", ".join(rows) + "];")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in families

def _positive(value, name):
    v = float(value)
    if not (v > 0 and math.isfinite(v)):
        raise MetricError(f"parameter {name} must be positive and finite, got {value}")
    return v


def _integral_dim(dim):
    """dim as an int; URI parameters arrive as floats."""
    d = float(dim)
    if not d.is_integer():
        raise MetricError(f"dim must be an integer, got {dim}")
    return int(d)


def flat_euclidean(dim=2):
    dim = _integral_dim(dim)
    names = tuple(f"x{i + 1}" for i in range(dim))
    comps = [[ex.Num(Fraction(1 if i == j else 0)) for j in range(dim)] for i in range(dim)]
    return MetricSpec(dim, names, comps, None, {}, {}, "flat-euclidean")


def flat_torus(dim=2, side=2 * math.pi):
    dim = _integral_dim(dim)
    names = tuple(f"x{i + 1}" for i in range(dim))
    comps = [[ex.Num(Fraction(1 if i == j else 0)) for j in range(dim)] for i in range(dim)]
    dom = tuple((0.0, float(side)) for _ in range(dim))
    periods = {n: float(side) for n in names}
    return MetricSpec(dim, names, comps, dom, {}, periods, "flat-torus")


def round_sphere():
    th, ph = ex.Sym("th"), ex.Sym("ph")
    one = ex.Num(Fraction(1))
    zero = ex.Num(Fraction(0))
    comps = [[one, zero], [zero, ex.Pow(ex.sin(th), ex.Num(Fraction(2)))]]
    dom = ((0.0, math.pi), (0.0, 2 * math.pi))
    return MetricSpec(2, ("th", "ph"), comps, dom, {}, {"ph": 2 * math.pi}, "round-sphere")


def _relu_expr(e):
    # max(e, 0) as (e + abs(e)) / 2; C^0, used only inside cubic-and-higher
    # powers so the assembled profile is C^2, and every partial stays defined
    # at e = 0 because d abs(e) = sign(e) e'.
    return ex.Div(ex.Add(e, ex.Call("abs", e)), ex.Num(Fraction(2)))


def cap_coefficients(eps):
    """The coefficients 4/s^2, 7/s^3 and 3/s^4 (s = 2 eps) of the smoothed
    cone's quintic cap.  An eps that is not positive and finite, or whose
    coefficients are not finite floats, raises MetricError."""
    s = 2 * _positive(eps, "eps")
    try:
        coeffs = (4.0 / s ** 2, 7.0 / s ** 3, 3.0 / s ** 4)
    except (ZeroDivisionError, OverflowError):   # a power of s underflows to 0 or overflows
        coeffs = (math.inf,)
    if not all(map(math.isfinite, coeffs)):
        raise MetricError(f"eps={eps} is out of range: the cap coefficients "
                          f"4/s^2, 7/s^3 and 3/s^4 (s = 2 eps) are not finite floats")
    return coeffs


def smoothed_cone(a, eps, r_max=4.0):
    """Cone dr^2 + a^2 r^2 dphi^2, capped smoothly on r < 2*eps.

    The profile f(r) multiplying dphi^2 equals a*r exactly for r >= 2*eps and
    is the C^2-matched quintic cap below: f = a*r + (1-a)(4u^3/s^2 - 7u^4/s^3
    + 3u^5/s^4) with u = max(2*eps - r, 0).  At the tip f(0)=0, f'(0)=1,
    f''(0)=0, so the cap closes up smoothly; at r = 2*eps the match is C^2.
    """
    a = float(a)
    if not (0 < a <= 1):
        raise MetricError(f"cone angle factor must satisfy 0 < a <= 1, got {a}")
    c3, c4, c5 = cap_coefficients(eps)
    eps = float(eps)
    r, s = ex.Sym("r"), 2 * eps
    u = _relu_expr(ex.Sub(ex.Num(s), r))
    one_m_a = ex.Num(1.0 - a)
    cap = ex.Add(
        ex.Sub(ex.Mul(ex.Num(c3), ex.Pow(u, ex.Num(Fraction(3)))),
               ex.Mul(ex.Num(c4), ex.Pow(u, ex.Num(Fraction(4))))),
        ex.Mul(ex.Num(c5), ex.Pow(u, ex.Num(Fraction(5)))))
    f = ex.Add(ex.Mul(ex.Num(a), r), ex.Mul(one_m_a, cap))
    zero = ex.Num(Fraction(0))
    comps = [[ex.Num(Fraction(1)), zero], [zero, ex.Pow(f, ex.Num(Fraction(2)))]]
    dom = ((0.0, float(r_max)), (0.0, 2 * math.pi))
    return MetricSpec(2, ("r", "phi"), comps, dom, {}, {"phi": 2 * math.pi},
                      f"smoothed-cone(a={a}, eps={eps})")


def exact_cone(a, r_min=1e-6, r_max=4.0):
    """The exact cone dr^2 + a^2 r^2 dphi^2 on r > 0 (vertex excluded)."""
    a = float(a)
    if not (0 < a <= 1):
        raise MetricError(f"cone angle factor must satisfy 0 < a <= 1, got {a}")
    r = ex.Sym("r")
    zero = ex.Num(Fraction(0))
    comps = [[ex.Num(Fraction(1)), zero],
             [zero, ex.Mul(ex.Num(a * a), ex.Pow(r, ex.Num(Fraction(2))))]]
    dom = ((float(r_min), float(r_max)), (0.0, 2 * math.pi))
    return MetricSpec(2, ("r", "phi"), comps, dom, {}, {"phi": 2 * math.pi},
                      f"exact-cone(a={a})")


def eguchi_hanson(a=1.0, margin=0.05, r_max=8.0, angle_margin=0.15):
    """Eguchi-Hanson metric in the radial Euler-angle chart on r > a.

    Coordinates (r, th, ph, ps) with Delta = 1 - (a/r)^4:

        g = Delta^-1 dr^2 + (r^2/4)(dth^2 + sin(th)^2 dph^2)
            + (r^2/4) Delta (dps + cos(th) dph)^2

    The bolt r = a is a coordinate degeneracy of this chart, so the domain
    starts at r = a*(1+margin); th stays away from the Euler-angle poles.
    """
    a = _positive(a, "a")
    r, th = ex.Sym("r"), ex.Sym("th")
    two = ex.Num(Fraction(2))
    quarter_r2 = ex.Div(ex.Pow(r, two), ex.Num(Fraction(4)))
    delta = ex.Sub(ex.Num(Fraction(1)), ex.Pow(ex.Div(ex.Num(a), r), ex.Num(Fraction(4))))
    zero = ex.Num(Fraction(0))
    sin2 = ex.Pow(ex.sin(th), two)
    cos1 = ex.cos(th)
    cos2 = ex.Pow(cos1, two)
    g_rr = ex.Div(ex.Num(Fraction(1)), delta)
    g_thth = quarter_r2
    g_phph = ex.Mul(quarter_r2, ex.Add(sin2, ex.Mul(delta, cos2)))
    g_phps = ex.Mul(quarter_r2, ex.Mul(delta, cos1))
    g_psps = ex.Mul(quarter_r2, delta)
    comps = [
        [g_rr, zero, zero, zero],
        [zero, g_thth, zero, zero],
        [zero, zero, g_phph, g_phps],
        [zero, zero, g_phps, g_psps],
    ]
    dom = ((a * (1 + float(margin)), float(r_max)),
           (float(angle_margin), math.pi - float(angle_margin)),
           (0.0, 2 * math.pi),
           (0.0, 2 * math.pi))
    return MetricSpec(4, ("r", "th", "ph", "ps"), comps, dom, {},
                      {"ph": 2 * math.pi, "ps": 2 * math.pi},
                      f"eguchi-hanson(a={a})")


def rescaled(m, lam):
    """Homothety: every component multiplied by lam^2, exactly as expressions."""
    lam_v = float(lam)
    if not lam_v > 0:
        raise MetricError(f"rescale factor must be positive, got {lam}")
    if isinstance(lam, (int, Fraction)):
        lam2 = ex.Num(Fraction(lam) ** 2)
    else:
        lam2 = ex.Num(lam_v * lam_v)
    comps = [[ex.Mul(lam2, e) for e in row] for row in m.components]
    out = MetricSpec(m.dim, m.coords, comps, m.domain, dict(m.params),
                     dict(m.periods), f"rescaled({m.name}, {lam_v})")
    return out


_BUILTINS = {
    "flat-euclidean": flat_euclidean,
    "flat-torus": flat_torus,
    "round-sphere": round_sphere,
    "smoothed-cone": smoothed_cone,
    "exact-cone": exact_cone,
    "eguchi-hanson": eguchi_hanson,
}

def builtin(family, **params):
    """Instantiate a builtin family by id, e.g. builtin('smoothed-cone', a=0.7, eps=0.1).
    Parameters that the family does not take, or a required one left out,
    raise MetricError."""
    try:
        fn = _BUILTINS[family]
    except KeyError:
        raise MetricError(f"unknown builtin family {family!r}") from None
    signature = inspect.signature(fn)
    try:
        signature.bind(**params)
    except TypeError as err:
        takes = ", ".join(signature.parameters) or "no parameters"
        raise MetricError(f"builtin {family} takes {takes}: {err}") from None
    return fn(**params)


def metric_from_uri(uri):
    """Resolve 'builtin:NAME[:k=v,...]' or a filesystem path to a MetricSpec."""
    if uri.startswith("builtin:"):
        rest = uri[len("builtin:"):]
        parts = rest.split(":", 1)
        family = parts[0]
        kwargs = {}
        if len(parts) == 2 and parts[1]:
            for piece in parts[1].split(","):
                k, _, v = piece.partition("=")
                if not _:
                    raise MetricError(f"bad builtin parameter {piece!r}")
                kwargs[k.strip()] = float(v)
        return builtin(family, **kwargs)
    with open(uri, "r", encoding="utf-8") as fh:
        return parse_metric(fh.read())
