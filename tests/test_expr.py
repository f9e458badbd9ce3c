import math
from fractions import Fraction

import numpy as np
import pytest

from framelab import expr as ex


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
    combo = ex.differentiate(a * e1 + b * e2, "x")
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
    assert ex.simplify(x * 1) == x
    assert ex.simplify(x + 0) == x
    assert ex.simplify(x - x) == ex.Num(Fraction(0))
    assert ex.simplify(ex.Pow(x, ex.Num(Fraction(1)))) == x


def test_parse_error_has_location():
    with pytest.raises(ex.ParseError) as err:
        ex.parse_expr("1 + @")
    assert "line 1" in str(err.value)
    assert err.value.col == 5


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
    # numpy scalars divide to inf (the "not finite" message); math.log
    # raises on them (the "undefined" message)
    reciprocal = ex.compile_exprs([ex.parse_expr("1/x")], ["x"])
    with pytest.raises(ex.ExprEvalError) as err, np.errstate(divide="ignore"):
        reciprocal(np.array([0.0]))
    assert "not finite at [0.0]" in str(err.value)
    assert "np.float64" not in str(err.value)
    log = ex.compile_exprs([ex.parse_expr("log(x)")], ["x"])
    with pytest.raises(ex.ExprEvalError) as err:
        log(np.array([-1.0]))
    assert "undefined at [-1.0]" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_rational_constants_exact():
    e = ex.parse_expr("1/3 + 1/6")
    assert ex.simplify(e) == ex.Num(Fraction(1, 2))
