import importlib.util
import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import bundle as bd
from framelab import curvature as cv
from framelab import expr as ex
from framelab import holonomy as hl
from framelab import metric as mt
from framelab.expr import ParseError, _plain
from conftest import GMET_N3, counting_rhs, textbook_derivative


def test_parse_identity_metric():
    m = mt.parse_metric("dim 2; coords x y; g = [[1,0],[0,1]];")
    assert m.dim == 2
    assert np.allclose(m.evaluate([0.3, -1.0]), np.eye(2))


def test_parse_round_sphere():
    m = mt.parse_metric("dim 2; coords th ph; g = [[1,0],[0,sin(th)^2]];")
    assert np.allclose(m.evaluate([math.pi / 2, 0.3]), np.eye(2), atol=1e-15)


def test_parse_rejects_non_symmetric():
    with pytest.raises((ParseError, mt.MetricError)):
        mt.parse_metric("dim 2; coords x y; g = [[1,2],[3,4]];")


def test_parse_rejects_unbound_parameter():
    with pytest.raises((ParseError, mt.MetricError)):
        mt.parse_metric("dim 2; coords x y; g = [[c,0],[0,1]];")


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(ParseError):
        mt.parse_metric("dim 3; coords x y; g = [[1,0],[0,1]];")


@pytest.mark.parametrize("source, message, col", [
    pytest.param("dim 1e400; coords x; g = [[1]];", "dim must be an integer", 5, id="dim-1e400"),
    pytest.param("dim 2; coords x y; g = [[1 + " + "1" * 5000 + "*x, 0], [0, 1]];", "too long", 30,
                 id="5000-digit-literal"),
])
def test_a_number_that_cannot_be_read_is_a_located_parse_error(source, message, col):
    with pytest.raises(ParseError, match=message) as err:
        mt.parse_metric(source)
    assert (err.value.line, err.value.col) == (1, col)


def test_parse_params_and_domain():
    src = """
    # cone chart
    dim 2; coords r phi;
    params a=0.7;
    domain r in [0.1, 3] phi in [0, 6.283185307179586];
    g = [[1, 0], [0, a^2*r^2]];
    """
    m = mt.parse_metric(src)
    assert m.params["a"] == 0.7
    assert m.domain[0] == (0.1, 3.0)
    g = m.evaluate([2.0, 1.0])
    assert g[1, 1] == pytest.approx(0.49 * 4.0)


def _in_domain_reference(m, point, tol, wrap):
    """The coordinate-by-coordinate test of one point."""
    point = m.wrap_point(point) if wrap else np.asarray(point, dtype=float)
    return not any(x < lo - tol or x > hi + tol for x, (lo, hi) in zip(point, m.domain))


def test_in_domain_of_a_stack_is_per_row():
    """A stack gives one answer per row, the coordinate-by-coordinate
    answer and the point answer: with tol, wrap, and for a NaN
    coordinate, which is not outside."""
    cone = mt.exact_cone(0.7)         # r in [r_min, r_max], phi periodic
    lo, hi = cone.domain[0]
    X = np.array([[0.5 * (lo + hi), 1.0], [hi + 1e-10, 1.0], [hi + 1e-6, 1.0],
                  [lo, 7.0], [lo, -0.5], [math.nan, 1.0], [1.0, math.nan]])
    for tol, wrap in ((0.0, False), (1e-9, False), (1e-9, True), (0.0, True)):
        got = cone.in_domain(X, tol=tol, wrap=wrap)
        assert got.dtype == bool and got.shape == (len(X),)
        assert got.tolist() == [cone.in_domain(x, tol=tol, wrap=wrap) for x in X]
        assert got.tolist() == [_in_domain_reference(cone, x, tol, wrap) for x in X]
    assert cone.in_domain(X, tol=1e-9, wrap=True).tolist() == [True, True, False, True, True,
                                                               True, True]
    assert cone.in_domain(X).tolist() == [True, False, False, False, False, True, True]
    assert cone.in_domain(X[0]) is True and cone.in_domain(X[2]) is False


def test_print_parse_round_trip_evaluates_identically(rng):
    src = "dim 2; coords th ph; params b=0.25; g = [[1+b*cos(th), 0],[0, sin(th)^2 + b]];"
    m = mt.parse_metric(src)
    back = mt.parse_metric(mt.print_metric(m))
    for _ in range(100):
        p = np.array([rng.uniform(0.1, 3.0), rng.uniform(0, 6.0)])
        assert np.abs(m.evaluate(p) - back.evaluate(p)).max() <= 1e-14


def test_spd_rejects_degenerate():
    m = mt.parse_metric("dim 2; coords x y; g = [[1,0],[0,0]];")
    with pytest.raises(mt.NotSPDError):
        m.check_spd([0.0, 0.0])


def test_spd_rejects_indefinite():
    m = mt.parse_metric("dim 2; coords x y; g = [[1,0],[0,-1]];")
    with pytest.raises(mt.NotSPDError):
        m.check_spd([0.0, 0.0])


def _pointwise_spd_error(g, point):
    """The pointwise SPD test that `require_spd` stacks: its message, or None."""
    if not np.allclose(g, g.T, atol=1e-12 * max(1.0, float(np.abs(g).max()))):
        return f"metric not symmetric at {_plain(point)}"
    w = np.linalg.eigvalsh(0.5 * (g + g.T))
    if w[0] > mt.SPD_EIG_TOL * max(abs(w[-1]), 1e-300):
        return None
    if w[0] <= 0:
        return f"metric not positive definite at {_plain(point)}: eigenvalues {w}"
    return f"metric too ill-conditioned at {_plain(point)}: cond {w[-1] / w[0]:.3e}"


@pytest.mark.parametrize("diag,message", [
    ((1.0, 1e-13), "metric too ill-conditioned at [0.5, 0.5]: cond 1.000e+13"),
    ((1.0, -1.0), "metric not positive definite at [0.5, 0.5]: eigenvalues [-1.  1.]"),
    ((1.0, 0.0), "metric not positive definite at [0.5, 0.5]: eigenvalues [0. 1.]"),
])
def test_spd_message_names_the_failure(diag, message):
    """Positive but below the relative floor is ill-conditioned; zero or
    negative is not positive definite."""
    with pytest.raises(mt.NotSPDError) as err:
        mt.require_spd(np.diag(diag)[None], [[0.5, 0.5]])
    assert str(err.value) == message


def _spd_test_matrix(rng, n):
    """SPD, indefinite, ill-conditioned, or asymmetric by about the
    relative tolerance 1e-5 of `np.allclose`, on either side of it."""
    B = rng.normal(size=(n, n))
    G = B @ B.T + 0.1 * np.eye(n)
    kind = rng.integers(4)
    if kind == 1:
        G -= 2.0 * np.abs(np.linalg.eigvalsh(G)).max() * np.outer(B[0], B[0]) / (B[0] @ B[0])
    elif kind == 2:
        Q = np.linalg.qr(B)[0]
        G = Q @ np.diag(np.geomspace(1.0, 10.0 ** -rng.uniform(10, 14), n)) @ Q.T
    elif kind == 3 and n > 1:
        G[0, 1] += abs(G[1, 0]) * 1e-5 * rng.uniform(0.5, 1.5)
    return G


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_require_spd_keeps_the_pointwise_acceptance_set(n, k, seed):
    """A stack is accepted iff every matrix passes the pointwise test, and
    otherwise fails with the pointwise message of its first failing matrix."""
    rng = np.random.default_rng(seed)
    G = np.stack([_spd_test_matrix(rng, n) for _ in range(k)])
    points = rng.normal(size=(k, 2))
    want = next(filter(None, (_pointwise_spd_error(g, p) for g, p in zip(G, points))), None)
    try:
        mt.require_spd(G, points)
        got = None
    except mt.NotSPDError as err:
        got = str(err)
    assert got == want


@pytest.mark.parametrize("factory", [
    lambda: mt.flat_euclidean(2),
    lambda: mt.flat_torus(2),
    lambda: mt.round_sphere(),
    lambda: mt.smoothed_cone(0.7, 0.1),
    lambda: mt.smoothed_cone(0.3, 0.05),
    lambda: mt.exact_cone(0.7),
    lambda: mt.rescaled(mt.round_sphere(), 2.0),
])
def test_builtins_spd_on_grid(factory):
    factory().validate_spd_on_grid(per_axis=10)


def test_eguchi_hanson_spd_on_grid(eh):
    # 10^4 grid points on the 4d chart
    eh.validate_spd_on_grid(per_axis=10)


def test_smoothed_cone_flat_for_a_equal_one():
    m = mt.smoothed_cone(1.0, 0.1)
    g = m.evaluate([1.0, 0.3])
    assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-14)
    assert g[1, 1] == pytest.approx(1.0, abs=1e-14)


def test_smoothed_cone_equals_exact_outside_cap(rng):
    a, eps = 0.7, 0.1
    ms = mt.smoothed_cone(a, eps)
    me = mt.exact_cone(a)
    for _ in range(50):
        p = np.array([rng.uniform(2 * eps + 1e-6, 3.5), rng.uniform(0, 6.28)])
        assert np.abs(ms.evaluate(p) - me.evaluate(p)).max() <= 1e-14


def test_smoothed_cone_cap_profile_is_c2():
    # f^2 continuous with two derivatives across the joint r = 2 eps
    a, eps = 0.55, 0.1
    m = mt.smoothed_cone(a, eps)
    s = 2 * eps
    d2 = m.derivative_fn(2)
    for h in (1e-4, 1e-5):
        below = d2([s - h, 0.0])[2][0, 0, 1, 1]
        above = d2([s + h, 0.0])[2][0, 0, 1, 1]
        assert abs(below - above) <= 200 * h  # second derivative is Lipschitz-matched


def test_eguchi_hanson_parameter_ranges():
    with pytest.raises(mt.MetricError):
        mt.eguchi_hanson(-1.0)
    with pytest.raises(mt.MetricError):
        mt.smoothed_cone(1.5, 0.1)
    with pytest.raises(mt.MetricError):
        mt.smoothed_cone(0.7, -0.1)
    with pytest.raises(mt.MetricError):
        mt.rescaled(mt.flat_euclidean(2), 0.0)


def test_rescaled_components_exact(rng):
    base = mt.round_sphere()
    lam = 2.0
    scaled = mt.rescaled(base, lam)
    for _ in range(20):
        p = np.array([rng.uniform(0.2, 2.9), rng.uniform(0, 6.0)])
        assert np.abs(scaled.evaluate(p) - 4.0 * base.evaluate(p)).max() == 0.0


def test_rescaled_torus_distances_double():
    # homothety: straight segments scale exactly
    from framelab.curvature import curve_length
    base = mt.flat_torus(2)
    scaled = mt.rescaled(base, 2.0)
    a = np.array([0.2, 0.3])
    b = np.array([1.1, 2.0])
    # curve_length calls the curve and its velocity on an array of t
    curve = lambda t: a + np.multiply.outer(t, b - a)
    velocity = lambda t: np.broadcast_to(b - a, (len(t), 2))
    L1 = curve_length(base, curve, velocity=velocity)
    L2 = curve_length(scaled, curve, velocity=velocity)
    assert L2 == pytest.approx(2 * L1, rel=1e-14)


def test_builtin_uri_parsing():
    m = mt.metric_from_uri("builtin:smoothed-cone:a=0.7,eps=0.1")
    assert "smoothed-cone" in m.name
    m2 = mt.metric_from_uri("builtin:flat-euclidean")
    assert m2.dim == 2


def test_gmet_file_round_trip(tmp_path):
    m = mt.smoothed_cone(0.7, 0.1)
    path = tmp_path / "cone.gmet"
    path.write_text(mt.print_metric(m), encoding="utf-8")
    back = mt.metric_from_uri(str(path))
    p = np.array([0.9, 0.4])
    assert np.abs(m.evaluate(p) - back.evaluate(p)).max() <= 1e-14


# one derivative per sorted multi-index and upper-triangle component

def _reference_derivative_exprs(m, order):
    """Every order-th partial of every component, each differentiated on
    its own in the order of its multi-index: the per-entry form that
    `MetricSpec._derivative_exprs` replaced."""
    exprs = [m._flat()]
    for _ in range(order):
        exprs = [[ex.differentiate(e, c) for e in block] for block in exprs for c in m.coords]
    return [e for block in exprs for e in block]


def _shaped(vals, shape):
    """A compiled evaluator's result as an array: a point's tuple to
    `shape`, a stack's (B, K) array to (B,) + shape."""
    if isinstance(vals, np.ndarray):
        return vals.reshape((len(vals),) + shape)
    return np.array(vals, dtype=float).reshape(shape)


def _reference_derivative_fn(m, order):
    fn = ex.compile_exprs(_reference_derivative_exprs(m, order), m.coords, m.params)
    return lambda x: _shaped(fn(x), (m.dim,) * (order + 2))


def _bench_gmet_bodies(seed, tmp_path):
    """The n = 3 `.gmet` texts of the benchmark's oneill-direct inputs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    ops = inputs.generate("oneill-direct", seed, tmp_path)["n3"]
    return [Path(op[key]).read_text() for op in ops for key in ("metric", "metric2")]


_BUILTINS = [
    lambda: mt.flat_euclidean(3),
    lambda: mt.flat_torus(2),
    lambda: mt.round_sphere(),
    lambda: mt.smoothed_cone(0.7, 0.15),
    lambda: mt.exact_cone(0.7),
    lambda: mt.eguchi_hanson(1.0),
    lambda: mt.rescaled(mt.eguchi_hanson(1.0, r_max=32.0), 1.0 / 8),
]

#: a generic n = 3 chart: components that mix coordinates, each lower
#: entry written differently from its upper twin
GMET_MIXED = """dim 3; coords x y z;
domain x in [0.0, 1.5]; domain y in [0.0, 1.5]; domain z in [0.0, 1.5];
g = [[2 + 0.3*sin(x*y) + 0.1*z^2, 0.2*cos(x + y*z), 0.1*x*exp(-y*z)],
     [0.2*cos(y*z + x), 2 + 0.2*x*y*z, 0.15*sin(x - z)*y],
     [0.1*exp(-z*y)*x, 0.15*y*sin(x - z), 2 + 0.25*cos(x*z)*y]];
"""


def _check_bitwise(m):
    X = np.array(m.sample_interior(np.random.default_rng(5), 20))
    for order in (1, 2, 3):
        got, want = m.derivative_fn(order), _reference_derivative_fn(m, order)
        assert np.array_equal(got(X)[order], want(X)), (m.name, order)
        assert np.array_equal(got(X[3])[order], want(X[3])), (m.name, order)


@pytest.mark.parametrize("factory", _BUILTINS)
def test_derivative_arrays_are_the_per_entry_ones_bit_for_bit(factory):
    _check_bitwise(factory())


def test_bench_gmet_derivative_arrays_are_the_per_entry_ones_bit_for_bit(tmp_path):
    bodies = _bench_gmet_bodies(101, tmp_path)
    assert len(bodies) == 24
    for body in bodies:
        _check_bitwise(mt.parse_metric(body))


def test_derivative_arrays_of_a_generic_chart_are_exactly_symmetric():
    m = mt.parse_metric(GMET_MIXED)
    X = np.array(m.sample_interior(np.random.default_rng(11), 20))
    for order in (1, 2, 3):
        D = m.derivative_fn(order)(X)[order]
        want = _reference_derivative_fn(m, order)(X)
        assert np.all(np.abs(D - want) <= 1e-13 * (1 + np.abs(want)))
        assert np.array_equal(D, np.swapaxes(D, -1, -2))
        for perm in itertools.permutations(range(1, order + 1)):
            axes = (0,) + perm + (order + 1, order + 2)
            assert np.array_equal(D, D.transpose(axes))


class _CountedLevels(dict):
    """A metric's `_levels`, recording the order of each level stored."""

    def __init__(self, levels):
        super().__init__(levels)
        self.stored = []

    def setdefault(self, order, level):
        self.stored.append(order)
        return super().setdefault(order, level)


def test_each_order_is_differentiated_once(monkeypatch):
    calls, depth = [], [0]
    diff = ex._diff

    def counting(e, var, memo):
        # `_diff` recurses through the module's name: count the outer calls
        if not depth[0]:
            calls.append(var)
        depth[0] += 1
        try:
            return diff(e, var, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "_diff", counting)
    m = mt.eguchi_hanson(1.0)
    m._levels = _CountedLevels(m._levels)
    m.derivative_fn(1)
    m.derivative_fn(2)
    before = len(calls)
    m.derivative_fn(3)
    # only the third level: C(n + 2, 3) sorted multi-indices, n(n+1)/2 components
    assert len(calls) - before == 20 * 10
    m.derivative_fn(3)
    m._derivative_exprs(3)
    assert len(calls) - before == 20 * 10
    assert len(calls) == (4 + 10 + 20) * 10
    assert m._levels.stored == [1, 2, 3]
    assert {k: (len(v), {len(p) for p in v.values()}) for k, v in m._levels.items()} == {
        0: (1, {10}), 1: (4, {10}), 2: (10, {10}), 3: (20, {10})}


def test_threads_that_race_to_build_a_level_get_one_level():
    m = mt.parse_metric(GMET_MIXED)
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def build(k):
        barrier.wait()
        results[k] = m._derivative_exprs(3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == 3 ** 5 for r in results)
    # every thread returns the level stored first, and no level is replaced
    assert all(a is b for r in results[1:] for a, b in zip(results[0], r))
    stored = {id(e) for entries in m._levels[3].values() for e in entries}
    assert {id(e) for e in results[0]} == stored


# each tree simplified once: the components when the metric is built, and
# each partial as it is differentiated

def _textbook_jet_exprs(m, order):
    """The expressions of `derivative_fn(order)`, each partial the
    simplified textbook derivative of the partial one order below by its
    multi-index's last coordinate: a derivative then a simplification,
    as two passes."""
    n, pairs = m.dim, mt._upper_pairs(m.dim)
    levels, memo = {(): [m.components[i][j] for i, j in pairs]}, {}
    for k in range(1, order + 1):
        for idx in itertools.combinations_with_replacement(range(n), k):
            levels[idx] = [ex.simplify(textbook_derivative(e, m.coords[idx[-1]], memo))
                           for e in levels[idx[:-1]]]
    slot = {pair: s for s, pair in enumerate(pairs)}
    return m._flat() + [levels[tuple(sorted(idx))][slot[min(i, j), max(i, j)]]
                        for k in range(1, order + 1)
                        for idx in itertools.product(range(n), repeat=k)
                        for i in range(n) for j in range(n)]


def _check_textbook_sources(monkeypatch, m):
    """The program `derivative_fn(k)` compiles, k = 0-3, is byte for byte
    the program of the two-pass partials."""
    sources, compile_exprs = [], ex.compile_exprs

    def recording(*args):
        fn = compile_exprs(*args)
        sources.append(fn.source)
        return fn

    monkeypatch.setattr(ex, "compile_exprs", recording)
    for order in range(4):
        m.derivative_fn(order)
        want = compile_exprs(_textbook_jet_exprs(m, order), m.coords, m.params)
        assert sources[-1] == want.source, (m.name, order)
    assert len(sources) == 4


_PARSED = [lambda: mt.parse_metric(GMET_MIXED)] + [lambda b=b: mt.parse_metric(b) for b in GMET_N3]


@pytest.mark.parametrize("factory", _BUILTINS + _PARSED)
def test_compiled_jets_are_the_two_pass_programs(monkeypatch, factory):
    _check_textbook_sources(monkeypatch, factory())


def test_bench_gmet_compiled_jets_are_the_two_pass_programs(monkeypatch, tmp_path):
    for body in _bench_gmet_bodies(101, tmp_path):
        _check_textbook_sources(monkeypatch, mt.parse_metric(body))


@pytest.mark.parametrize("factory", _BUILTINS + _PARSED + [
    lambda: mt.rescaled(mt.parse_metric(GMET_MIXED), 3),
    lambda: mt.parse_metric("dim 2; coords x y; g = [[1 + 0*x + y^1, 0*y], [0, 2 - -x]];")])
def test_components_are_stored_simplified(factory):
    m = factory()
    for row in m.components:
        for e in row:
            assert ex.simplify(e) is e


def test_a_foldable_component_is_differentiated_folded():
    """sin(x)^2 + cos(x)^2 folds to 1 before it is differentiated, so its
    x-partials are exactly 0."""
    src = "sin(x)^2 + cos(x)^2 + y^2"
    assert ex.differentiate(ex.parse_expr(src), "x") == ex.Num(0)
    m = mt.parse_metric(f"dim 2; coords x y; g = [[{src}, 0], [0, 1]];")
    assert m.components[0][0] == ex.parse_expr("1 + y^2")
    for order in (1, 2, 3):
        assert m._derivative_exprs(order)[0] == ex.Num(0)
    _, dG, d2G, d3G = m.derivative_fn(3)(np.array([[0.3, 0.7], [1.1, -0.4]]))
    assert not dG[:, 0, 0, 0].any() and not d2G[:, 0, :, 0, 0].any()
    assert not d3G[..., 0, 0].any()


# one program per metric and order

def _separate_programs(m, order):
    """G and its partials to `order` from one program per order: G from the
    components, each order's partials from `_derivative_exprs`, as the
    metric evaluated them before one program per metric and order."""
    fns = [ex.compile_exprs(m._flat(), m.coords, m.params)]
    fns += [ex.compile_exprs(m._derivative_exprs(k), m.coords, m.params)
            for k in range(1, order + 1)]
    return lambda x: [_shaped(fn(x), (m.dim,) * (k + 2)) for k, fn in enumerate(fns)]


@pytest.mark.parametrize("factory", _BUILTINS + [lambda: mt.parse_metric(GMET_MIXED)])
def test_one_program_jets_are_the_separate_programs_bit_for_bit(factory):
    """Every builtin, the rescaled Eguchi-Hanson and a generic n = 3 chart:
    the jet of each order 0-3 is bitwise the separate programs' arrays, on
    a stack and at each point."""
    m = factory()
    X = m.sample_interior(np.random.default_rng(7), 12)
    for order in range(4):
        got, want = m.derivative_fn(order), _separate_programs(m, order)
        for x in [X] + list(X[:4]):
            jet, ref = got(x), want(x)
            assert len(jet) == order + 1
            for a, b in zip(jet, ref):
                assert a.shape == b.shape and np.array_equal(a, b), (m.name, order)
    assert np.array_equal(m.evaluate(X), _separate_programs(m, 0)(X)[0])


#: a metric that is finite at r = 0 while its r-partials are not
SQRT_BASE = "dim 2; coords r t; g = [[1, 0], [0, 1 + sqrt(r)]];"


def test_an_undefined_partial_of_a_finite_metric_raises_at_a_point():
    """G is defined at r = 0 and dG is not: a point jet raises ExprEvalError,
    a stacked one leaves that row non-finite, and `_jet_rows`, under the
    stacked curvature jets and every other stacked caller, evaluates that
    row again as a point, which raises the point's error."""
    m = mt.parse_metric(SQRT_BASE)
    p = [0.0, 0.3]
    assert np.array_equal(m.evaluate(p), np.eye(2))
    for order in (1, 2, 3):
        with pytest.raises(ex.ExprEvalError, match="expression undefined at"):
            m.derivative_fn(order)(p)
    X = np.array([[1.0, 0.3], [0.0, 0.3], [0.5, 0.1]])
    G, dG = m.derivative_fn(1)(X)
    assert np.isfinite(G).all() and np.isfinite(dG[[0, 2]]).all()
    assert not np.isfinite(dG[1]).all()
    for jet in (cv.christoffel, cv.riemann, cv.curvature_gradient):
        with pytest.raises(ex.ExprEvalError) as point:
            jet(m, X[1])
        if jet is not cv.christoffel:
            with pytest.raises(ex.ExprEvalError) as stacked:
                jet(m, X)
            assert str(stacked.value) == str(point.value)
    _, errors = mt._jet_rows(m, X, 2)
    assert list(errors) == [1]
    assert isinstance(errors[1], ex.ExprEvalError)


#: undefined at x < 0 (sqrt) and at y <= 0 (log); SPD elsewhere
SQRT_LOG = "dim 2; coords x y; g = [[2 + sqrt(x), 0], [0, 1 + log(y)^2]];"


def _point_error(fn, *args):
    """The message of the ExprEvalError that fn(*args) raises."""
    with pytest.raises(ex.ExprEvalError) as err:
        fn(*args)
    return str(err.value)


def test_jet_rows_evaluates_a_failed_row_again_as_a_point():
    """A stacked row that comes back non-finite is evaluated as a point:
    it fails with the point's error and holds zeros, while the other rows
    keep their stacked values."""
    m = mt.parse_metric(SQRT_LOG)
    X = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, -0.5], [0.5, 0.5]])
    derivs, errors = mt._jet_rows(m, X, 2)
    assert sorted(errors) == [1, 2]
    for k in (1, 2):
        assert str(errors[k]) == _point_error(m.evaluate, X[k].tolist())
        assert str(errors[k]).startswith("expression undefined at")
        assert not any(d[k].any() for d in derivs)
    for d, want in zip(derivs, m.derivative_fn(2)(X)):
        assert np.array_equal(d[[0, 3]], want[[0, 3]])


def test_every_stacked_caller_raises_the_error_of_its_failed_row():
    """One undefined row of a stack gives what one point gives there,
    through every caller of `_jet_rows`."""
    m = mt.parse_metric(SQRT_LOG)
    flat = mt.parse_metric("dim 2; coords x y; g = [[1, 0], [0, 1]];")
    X = np.array([[1.0, 2.0], [-1.0, 2.0], [0.5, 0.5]])
    # the curvature jets
    assert _point_error(cv.riemann, m, X) == _point_error(cv.riemann, m, X[1])
    # a chord crossing x < 0: its first node there
    seg, nodes = hl.line_segment([1.0, 2.0], [-1.0, 1.5]), []
    message = _point_error(cv.curve_length, m, lambda t: nodes.append(seg.point(t)) or nodes[0],
                           seg.velocity)
    assert message == _point_error(m.evaluate, nodes[0][np.argmax(nodes[0][:, 0] < 0)])
    # the lifted metric, through g and through g'
    Y = np.c_[X, np.zeros(3)]
    for g, gp in ((m, flat), (flat, m)):
        chart = bd.LiftedMetricChart(g, gp, bd.FramePoint.anchor([1.0, 2.0], 2))
        assert (_point_error(chart.metric_matrix, Y)
                == _point_error(chart.metric_matrix, Y[1]))
    # frame transport: a domain error at the first bad node of the first
    # round's lattice j/(4N); the chord meets x = 0 at the node s = 1/2,
    # where sqrt(x) has no derivative
    with pytest.raises(cv.DomainExitError) as err:
        hl.gauge_transport(m, [seg])
    s = np.arange(4 * hl.TRANSPORT_STEPS + 1) / (4 * hl.TRANSPORT_STEPS)
    s_bad = s[seg.point(s)[:, 0] <= 0].min()
    assert s_bad == 0.5
    assert err.value.s_exit == s_bad
    assert np.array_equal(err.value.point, seg.point(s_bad))
    # geodesics: the row fails alone
    W = np.array([[0.1, 0.1], [0.1, 0.1], [0.1, 0.1]])
    stack = cv.geodesic_ivp(m, X, W, 0.5)
    assert str(stack.rows[1]) == _point_error(cv.geodesic_ivp, m, X[1], W[1], 0.5)
    for k in (0, 2):
        assert np.array_equal(stack.rows[k].y, cv.geodesic_ivp(m, X[k], W[k], 0.5).y)


def test_a_stacked_geodesic_right_hand_side_is_one_evaluation(monkeypatch):
    """Each stacked right-hand side evaluates its rows' G and dG (and d2G
    with the variational equations) in one call of one compiled program."""
    evals = []
    compile_exprs = ex.compile_exprs

    def counting(*args):
        fn = compile_exprs(*args)
        return lambda x: evals.append(np.shape(x)) or fn(x)

    monkeypatch.setattr(ex, "compile_exprs", counting)
    jet_rows = counting_rhs(monkeypatch)
    m = mt.exact_cone(0.7)
    P = np.array([[1.0, 0.2], [0.6, 1.0], [1.3, 2.0]])
    W = np.array([[0.2, 0.3], [-0.1, 0.4], [0.3, -0.2]])
    for variational in (False, True):
        evals.clear()
        jet_rows.clear()
        stack = cv.geodesic_ivp(m, P, W, 1.0, variational=variational)
        assert all(isinstance(row, cv.Trajectory) for row in stack.rows)
        assert max(jet_rows) == len(P)
        assert evals == [(b, 2) for b in jet_rows]


def _loop_sample(m, rng, count, margin):
    """The per-point, per-coordinate draws that one (count, n) draw of
    `sample_interior` replaced."""
    pts = []
    for _ in range(count):
        p = []
        for lo, hi in m.domain:
            lo_eff = lo if math.isfinite(lo) else -2.0
            hi_eff = hi if math.isfinite(hi) else 2.0
            p.append(lo_eff + (hi_eff - lo_eff) * (margin + (1 - 2 * margin) * rng.random()))
        pts.append(p)
    return np.array(pts)


@pytest.mark.parametrize("seed", [0, 7, 101, 24101])
def test_sample_interior_draws_the_points_of_the_loop(seed):
    """One (count, n) draw gives bitwise the points of the per-coordinate
    loop, bounded and unbounded coordinates alike, and leaves the stream
    where the loop leaves it."""
    for m in (mt.eguchi_hanson(1.0), mt.flat_euclidean(3), mt.smoothed_cone(0.7, 0.15)):
        for margin in (0.05, 0.2):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = m.sample_interior(rng, 9, margin=margin)
            assert got.shape == (9, m.dim)
            assert np.array_equal(got, _loop_sample(m, ref, 9, margin))
            assert rng.random() == ref.random()
