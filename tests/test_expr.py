import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import expr as ex
from framelab import metric as mt
from conftest import GMET_N3, reference_eval, textbook_derivative


def fd_derivative(e, var, point, h=1e-5):
    names = sorted(ex.free_symbols(e))
    fn = ex.compile_exprs([e], names)
    up = dict(point)
    dn = dict(point)
    up[var] += h
    dn[var] -= h
    xs_up = [up[n] for n in names]
    xs_dn = [dn[n] for n in names]
    return (fn(xs_up)[0] - fn(xs_dn)[0]) / (2 * h)


def test_parse_basics():
    e = ex.parse_expr("1 + 2*x - y^2/4")
    val = ex.evaluate(e, {"x": 3.0, "y": 2.0})
    assert val == 1 + 6 - 1


def test_power_rule():
    d = ex.differentiate(ex.parse_expr("x^2"), "x")
    assert d == ex.parse_expr("2*x")


def test_constant_rule():
    d = ex.differentiate(ex.parse_expr("7/3"), "x")
    assert ex.evaluate(d, {}) == 0.0


def test_sin_squared_derivative_matches_fd():
    e = ex.parse_expr("sin(th)^2")
    d = ex.differentiate(e, "th")
    at = math.pi / 4
    assert ex.evaluate(d, {"th": at}) == pytest.approx(1.0, abs=1e-12)
    assert ex.evaluate(d, {"th": at}) == pytest.approx(
        fd_derivative(e, "th", {"th": at}), rel=1e-6)


@pytest.mark.parametrize("src", [
    "x^3 - 2*x + 1",
    "sin(x)*cos(2*x)",
    "exp(-x^2/2)",
    "log(1 + x^2)",
    "sqrt(1 + x^2)",
    "tan(x/3)",
    "x^2*sin(x) / (1 + cos(x)^2)",
])
def test_derivative_matches_central_differences(src):
    e = ex.parse_expr(src)
    d = ex.differentiate(e, "x")
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-1.2, 1.2)
        want = fd_derivative(e, "x", {"x": x})
        got = ex.evaluate(d, {"x": x})
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_differentiation_is_linear():
    e1 = ex.parse_expr("sin(x)*x")
    e2 = ex.parse_expr("exp(x/2)")
    a, b = Fraction(3), Fraction(-2)
    combo = ex.differentiate(ex.Add(ex.Mul(a, e1), ex.Mul(b, e2)), "x")
    d1 = ex.differentiate(e1, "x")
    d2 = ex.differentiate(e2, "x")
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-2, 2)
        lhs = ex.evaluate(combo, {"x": x})
        rhs = 3 * ex.evaluate(d1, {"x": x}) - 2 * ex.evaluate(d2, {"x": x})
        assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))


def test_closure_under_differentiation():
    e = ex.parse_expr("sqrt(x^2 + 1)*tan(x)")
    d = e
    for _ in range(4):
        d = ex.differentiate(d, "x")
    assert isinstance(d, ex.Expr)
    assert math.isfinite(ex.evaluate(d, {"x": 0.3}))


def test_round_trip_printing():
    rng = np.random.default_rng(3)
    for src in ["(x + 1)*(x - 2)/y^2", "-x^2", "2 - -x", "sin(x)^2*cos(y)",
                "x/(y*z)", "x - (y - z)", "1/2*x + 3/7"]:
        e = ex.parse_expr(src)
        back = ex.parse_expr(ex.to_str(e))
        for _ in range(10):
            env = {n: rng.uniform(0.5, 2.0) for n in ex.free_symbols(e)}
            assert ex.evaluate(back, env) == pytest.approx(
                ex.evaluate(e, env), abs=1e-14, rel=1e-14)


def test_pythagorean_simplification():
    e = ex.simplify(ex.parse_expr("sin(u)^2 + cos(u)^2"))
    assert e == ex.Num(Fraction(1))


def test_simplify_identities():
    x = ex.Sym("x")
    assert ex.simplify(ex.Mul(x, 1)) == x
    assert ex.simplify(ex.Add(x, 0)) == x
    assert ex.simplify(ex.Sub(x, x)) == ex.Num(Fraction(0))
    assert ex.simplify(ex.Pow(x, ex.Num(Fraction(1)))) == x


def test_parse_error_has_location():
    with pytest.raises(ex.ParseError) as err:
        ex.parse_expr("1 + @")
    assert "line 1" in str(err.value)
    assert err.value.col == 5


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_is_an_expression_error(value):
    with pytest.raises(ex.ExprError, match="not finite"):
        ex.Num(value)


def test_unknown_function_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_expr("sinh(x)")


def test_abs_derivative_is_sign_and_defined_at_zero():
    e = ex.parse_expr("abs(x - 1)^3")
    d1 = ex.differentiate(e, "x")
    d2 = ex.differentiate(d1, "x")
    assert ex.differentiate(ex.parse_expr("sign(x)"), "x") == ex.Num(Fraction(0))
    fn = ex.compile_exprs([e, d1, d2], ["x"])
    assert fn([1.0]) == (0.0, 0.0, 0.0)
    for x in (-0.5, 0.25, 2.0):
        u = x - 1
        want = (abs(u) ** 3, 3 * u * abs(u), 6 * abs(u))
        assert fn([x]) == pytest.approx(want, rel=1e-14)


def test_evaluation_outside_real_domain_raises():
    fn = ex.compile_exprs([ex.parse_expr("log(x)")], ["x"])
    with pytest.raises(ex.ExprEvalError):
        fn([-1.0])
    with pytest.raises(ex.ExprEvalError):
        fn([0.0])


def test_evaluation_error_prints_plain_floats():
    # one message for an inf (1/0) and a NaN (log(-1)), whatever the
    # point arrives as
    reciprocal = ex.compile_exprs([ex.parse_expr("1/x")], ["x"])
    for point in ([0.0], np.array([0.0])):
        with pytest.raises(ex.ExprEvalError) as err:
            reciprocal(point)
        assert str(err.value) == "expression undefined at [0.0]"
    log = ex.compile_exprs([ex.parse_expr("log(x)")], ["x"])
    with pytest.raises(ex.ExprEvalError) as err:
        log(np.array([-1.0]))
    assert "undefined at [-1.0]" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_rational_constants_exact():
    e = ex.parse_expr("1/3 + 1/6")
    assert ex.simplify(e) == ex.Num(Fraction(1, 2))


def test_negative_constant_base_is_raised_to_the_power():
    # -1.5 is a float constant; (-1.5)^2 is 2.25, not -(1.5^2)
    fn = ex.compile_exprs([ex.Pow(ex.Num(-1.5), ex.Num(Fraction(2)))], [])
    assert fn([]) == (2.25,)


def test_fractional_power_of_a_negative_base_is_undefined():
    # on Python floats (-2.0)**1.5 is complex; the evaluator names the point
    fn = ex.compile_exprs([ex.parse_expr("2 + x^1.5")], ["x"])
    with pytest.raises(ex.ExprEvalError, match=r"expression undefined at \[-2.0\]"):
        fn([-2.0])
    assert np.isnan(fn(np.array([[-2.0], [4.0]]))[0, 0])


# the compiled program: one CSE source on numpy; a point is a one-row stack

#: metric -> the box its points are drawn from (the smoothed cone's takes in
#: the cap r < 0.2, where its components are polynomials in abs)
COMPILED_METRICS = {
    "smoothed-cone": (mt.smoothed_cone(0.7, 0.1), [(0.02, 1.0), (0.0, 6.2)]),
    "round-sphere": (mt.round_sphere(), [(0.2, 2.9), (0.0, 6.2)]),
    "eguchi-hanson": (mt.eguchi_hanson(1.0), [(1.06, 7.9), (0.16, 2.98), (0.0, 6.2), (0.0, 6.2)]),
    "gmet-n3": (mt.parse_metric(GMET_N3[0]), [(0.0, 1.5)] * 3),
}

#: a list with exp, log, tan and powers, which libm and numpy may round apart
TRANSCENDENTAL = (["exp(x)*tan(y/3) + log(1 + x^2)", "x^3 - y^5/7 + x^1.5", "exp(-x*y)^2"],
                  [(0.1, 2.0), (-2.0, 2.0)])


@lru_cache(maxsize=None)
def _program(name, order):
    """(exprs, coords, evaluator, box) of the order-th partials of a metric,
    or of the TRANSCENDENTAL list (order None)."""
    if order is None:
        sources, box = TRANSCENDENTAL
        exprs, coords = [ex.parse_expr(s) for s in sources], ("x", "y")
    else:
        m, box = COMPILED_METRICS[name]
        exprs, coords = m._derivative_exprs(order), m.coords
    return exprs, coords, ex.compile_exprs(exprs, coords), box


def _points(box, fractions):
    return np.array([[lo + f * (hi - lo) for f, (lo, hi) in zip(row, box)]
                     for row in fractions])


PROGRAMS = st.sampled_from([(name, order) for name in COMPILED_METRICS for order in (0, 1, 2)])
FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(program=PROGRAMS, fractions=FRACTIONS)
def test_point_binding_is_the_tree_walk_bit_for_bit(program, fractions):
    exprs, coords, fn, box = _program(*program)
    x = _points(box, [fractions])[0].tolist()
    env = dict(zip(coords, x))
    want = tuple(reference_eval(e, env) for e in exprs)
    assert fn(x) == want
    # numpy scalars give the same bits
    assert fn(np.array(x)) == want


@settings(max_examples=40, deadline=None)
@given(program=st.one_of(PROGRAMS, st.just(("transcendental", None))),
       seed=st.integers(0, 2**32 - 1), k=st.integers(0, 63))
def test_a_stacked_row_does_not_depend_on_the_stack(program, seed, k):
    _, _, fn, box = _program(*program)
    X = _points(box, np.random.default_rng(seed).random((64, len(box))))
    full = fn(X)
    assert full.shape == (64, len(fn(X[0])))
    assert np.array_equal(fn(X[k:k + 1])[0], full[k])
    start = min(k, 57)
    assert np.array_equal(fn(X[start:start + 7])[k - start], full[k])
    # a strided, shifted view of the same rows
    Y = np.zeros((128, len(box)))
    Y[1::2] = X
    assert np.array_equal(fn(Y[1::2])[k], full[k])


@settings(max_examples=40, deadline=None)
@given(program=st.one_of(PROGRAMS, st.just(("transcendental", None))),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_values_agree_with_point_values(program, seed):
    _, _, fn, box = _program(*program)
    X = _points(box, np.random.default_rng(seed).random((16, len(box))))
    S = fn(X)
    for x, row in zip(X, S):
        assert np.array_equal(row, fn(x.tolist()))


def test_powers_sines_and_cosines_stack_bit_for_bit():
    # numpy's sin, cos and sqrt are libm's, and powers go through libm's pow
    rng = np.random.default_rng(17)
    for name in COMPILED_METRICS:
        for order in (0, 1, 2):
            _, _, fn, box = _program(name, order)
            X = _points(box, rng.random((50, len(box))))
            assert np.array_equal(fn(X), np.array([fn(x.tolist()) for x in X]))


def test_a_bad_stacked_row_is_left_for_the_point_evaluator():
    m = mt.parse_metric("dim 2; coords x y; g = [[2 + sqrt(x), 0], [0, 1 + log(y)^2]];")
    X = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, -0.5], [0.5, 0.5]])
    for S in m.derivative_fn(1)(X):
        assert np.isfinite(S[[0, 3]]).all()
        assert not np.isfinite(S[1]).all() and not np.isfinite(S[2]).all()


def test_shared_subtrees_are_emitted_once():
    _, _, fn, _ = _program("eguchi-hanson", 2)
    temps = re.findall(r"^    (_t\d+) = ", fn.source, flags=re.M)
    assert len(temps) == len(set(temps)) <= 110
    # the 256 components of d2G take one return of locals and constants
    assert fn.source.count("\n") == len(temps) + 2


# one simplification per node: `simplify` keeps a simplified tree, and a
# derivative folded as it is built is the simplified textbook derivative

_LEAVES = st.one_of(
    st.sampled_from([ex.Sym("x"), ex.Sym("y")]),
    st.sampled_from([-1, 0, 1, 2, Fraction(1, 2)]).map(lambda v: ex.Num(Fraction(v))),
    st.floats(-3.0, 3.0).map(ex.Num))

#: exponents from a small set, so that folded constants stay small
_EXPONENTS = st.sampled_from([ex.Num(Fraction(2)), ex.Num(Fraction(-1)),
                              ex.Num(Fraction(1, 2)), ex.Sym("y")])


def _extend(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div]), children, children),
        st.builds(ex.Pow, children, _EXPONENTS),
        st.builds(ex.Neg, children),
        st.builds(ex.Call, st.sampled_from(ex._FUNCTIONS), children),
        # one subtree object in two places, as a derivative tree shares them
        children.map(lambda c: ex.Mul(c, ex.Add(c, ex.Sym("x")))))


EXPRS = st.recursive(_LEAVES, _extend, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(e=EXPRS)
def test_simplify_is_idempotent_and_keeps_a_simplified_tree(e):
    s = ex.simplify(e)
    assert ex._key(ex.simplify(s)) == ex._key(s)
    assert ex.simplify(s) is s


@settings(max_examples=200, deadline=None)
@given(e=EXPRS)
def test_folded_derivatives_are_the_simplified_textbook_ones(e):
    s = ex.simplify(e)
    memo, textbook = {}, {}
    for var in ("x", "y"):
        want = ex.simplify(textbook_derivative(s, var, textbook))
        assert ex._key(ex.differentiate(s, var)) == ex._key(want)
        # a second order from one shared memo, as a level of partials is built
        d = ex._diff(s, var, memo)
        assert ex._key(d) == ex._key(want)
        assert ex._key(ex._diff(d, "x", memo)) == ex._key(
            ex.simplify(textbook_derivative(want, "x", {})))
