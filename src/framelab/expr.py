"""Small symbolic expression engine for metric coefficient functions.

Expressions are immutable trees over symbols, exact rational constants and
the operators + - * / ^ sqrt sin cos tan exp log abs sign.  Differentiation
is symbolic (closed under the node set), so higher metric derivatives needed
by curvature gradients stay exact; d abs(u) = sign(u) u' with sign(0) = 0,
and sign has derivative 0.  Simplification is deliberately limited
to constant folding and a few identities (x*1, x+0, sin^2+cos^2); we never
attempt aggressive rewriting.

Each tree is simplified once: `simplify` rewrites a tree bottom-up, and
`differentiate` folds each node of a derivative as it builds it, so the
derivative of a simplified tree is simplified.  `compile_exprs` compiles
the trees it is given as they are.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np


class ExprError(ValueError):
    pass


class ExprEvalError(ExprError):
    """Evaluation left the real domain (log of a negative number, 0/0, ...)."""


class ParseError(ExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_FUNCTIONS = ("sqrt", "sin", "cos", "tan", "exp", "log", "abs", "sign")


class Expr:
    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}({to_str(self)!r})"

    def __str__(self):
        return to_str(self)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Num(Fraction(v))
    if isinstance(v, float):
        return Num(v)
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ExprError(f"number not finite: {value!r}")
            # keep floats only when they are not exactly representable
            if value == int(value) and abs(value) < 2**52:
                value = Fraction(int(value))
        object.__setattr__(self, "value", value)


class Sym(Expr):
    """A named symbol: either a chart coordinate or a named parameter."""

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", _coerce(a))
        object.__setattr__(self, "b", _coerce(b))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", _coerce(a))


class Call(Expr):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        if fn not in _FUNCTIONS:
            raise ExprError(f"unknown function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "a", _coerce(a))


def sin(a):
    return Call("sin", a)


def cos(a):
    return Call("cos", a)


# ---------------------------------------------------------------------------
# structural key (used for equality, hashing and canonical ordering)

def _key(e):
    t = type(e)
    if t is Num:
        v = e.value
        return ("num", str(v))
    if t is Sym:
        return ("sym", e.name)
    if t is Neg:
        return ("neg", _key(e.a))
    if t is Call:
        return ("call", e.fn, _key(e.a))
    return (t.__name__.lower(), _key(e.a), _key(e.b))


# ---------------------------------------------------------------------------
# tokenizer / parser

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _float_literal(tok):
    """A number token's value as a float, which it must fit."""
    value = float(tok.text)
    if not math.isfinite(value):
        raise ParseError(f"number {tok.text} does not fit a float", tok.line, tok.col)
    return value


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                cj = source[j]
                if cj.isdigit():
                    j += 1
                elif cj == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif cj in "eE" and not seen_exp and j + 1 < n and (
                    source[j + 1].isdigit() or (source[j + 1] in "+-" and j + 2 < n and source[j + 2].isdigit())
                ):
                    seen_exp = True
                    j += 1
                    if source[j] in "+-":
                        j += 1
                else:
                    break
            text = source[i:j]
            tokens.append(_Token("number", text, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^(),[];=":
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


#: how deep brackets, function calls, signs and exponents may nest in one
#: expression; the parser and every tree pass recurse once per level
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _nested(self, tok, parse):
        """parse() one level below the bracket, call, sign or exponent at tok."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def parse_expr(self):
        return self._additive()

    def _additive(self):
        node = self._multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self._multiplicative()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _multiplicative(self):
        node = self._unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self._unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def _unary(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg(self._nested(tok, self._unary))
        if tok.kind == "+":
            self.next()
            return self._nested(tok, self._unary)
        return self._power()

    def _power(self):
        base = self._atom()
        if self.peek().kind == "^":
            # right associative, binds tighter than unary minus on the left
            exponent = self._nested(self.next(), self._unary_power)
            return Pow(base, exponent)
        return base

    def _unary_power(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg(self._nested(tok, self._unary_power))
        return self._power()

    def _atom(self):
        tok = self.next()
        if tok.kind == "number":
            if "e" in tok.text or "E" in tok.text:
                return Num(_float_literal(tok))
            try:
                return Num(_exact(Fraction(tok.text)))
            except ValueError:
                raise ParseError(f"number of {len(tok.text)} digits is too long", tok.line, tok.col) from None
        if tok.kind == "name":
            if self.peek().kind == "(":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col)
                arg = self._nested(self.next(), self.parse_expr)
                self.expect(")")
                return Call(tok.text, arg)
            return Sym(tok.text)
        if tok.kind == "(":
            node = self._nested(tok, self.parse_expr)
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr(source):
    """Parse a single expression string into an Expr tree."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e):
    t = type(e)
    if t in (Num, Sym, Call):
        if t is Num and (e.value < 0):
            return _PREC["neg"]
        return _PREC["atom"]
    if t is Neg:
        return _PREC["neg"]
    if t is Pow:
        return _PREC["pow"]
    if t in (Mul, Div):
        return _PREC["mul"]
    return _PREC["add"]


def _wrap(e, parent_prec, strict=False):
    s = to_str(e)
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({s})"
    return s


def to_str(e):
    """Canonical text form; parse(to_str(e)) evaluates identically to e."""
    t = type(e)
    if t is Num:
        v = e.value
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return str(v.numerator)
            return f"{v.numerator}/{v.denominator}"
        return repr(v)
    if t is Sym:
        return e.name
    if t is Add:
        return f"{_wrap(e.a, 1)} + {_wrap(e.b, 1)}"
    if t is Sub:
        return f"{_wrap(e.a, 1)} - {_wrap(e.b, 1, strict=True)}"
    if t is Mul:
        return f"{_wrap(e.a, 2)}*{_wrap(e.b, 2)}"
    if t is Div:
        return f"{_wrap(e.a, 2)}/{_wrap(e.b, 2, strict=True)}"
    if t is Neg:
        return f"-{_wrap(e.a, 3, strict=True)}"
    if t is Pow:
        return f"{_wrap(e.a, 4, strict=True)}^{_wrap(e.b, 4)}"
    if t is Call:
        return f"{e.fn}({to_str(e.a)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# symbols / substitution

def free_symbols(e):
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Sym:
            out.add(node.name)
        elif t in (Neg, Call):
            stack.append(node.a)
        elif t is not Num:
            stack.append(node.a)
            stack.append(node.b)
    return out


# ---------------------------------------------------------------------------
# differentiation
#
# `_diff` folds each node of a derivative as it builds it (`_mk`), from
# operands that are already simplified, so the derivative of a simplified
# tree is simplified.  Its memo is shared by one build of partials (the
# levels one `derivative_fn` call adds).  It is keyed by node identity and
# holds the node, so an id is not reused while the memo lives: subtrees
# that trees share are differentiated once per variable.

def differentiate(e, var):
    """Exact partial derivative of e with respect to the symbol named var,
    simplified."""
    if isinstance(var, Sym):
        var = var.name
    return _diff(simplify(e), var, {})


def _mk(t, a, b=None):
    """The node t(a, b), or t(a) for Neg, folded; a and b are simplified."""
    return _fold(t(a) if b is None else t(a, b), a, b)


def _call(fn, a):
    """The node fn(a), folded; a is simplified."""
    return _fold(Call(fn, a), a)


_ZERO, _ONE, _TWO = Num(Fraction(0)), Num(Fraction(1)), Num(Fraction(2))


def _diff(e, var, memo):
    """The partial derivative of a simplified tree, simplified."""
    t = type(e)
    if t is Num:
        return _ZERO
    if t is Sym:
        return _ONE if e.name == var else _ZERO
    key = (id(e), var)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if t is Add or t is Sub:
        d = _mk(t, _diff(e.a, var, memo), _diff(e.b, var, memo))
    elif t is Neg:
        d = _mk(Neg, _diff(e.a, var, memo))
    elif t is Mul:
        d = _mk(Add, _mk(Mul, _diff(e.a, var, memo), e.b), _mk(Mul, e.a, _diff(e.b, var, memo)))
    elif t is Div:
        num = _mk(Sub, _mk(Mul, _diff(e.a, var, memo), e.b), _mk(Mul, e.a, _diff(e.b, var, memo)))
        d = _mk(Div, num, _mk(Pow, e.b, _TWO))
    elif t is Pow:
        base, expo = e.a, e.b
        if not free_symbols(expo):
            # d(u^c) = c u^(c-1) u'
            d = _mk(Mul, _mk(Mul, expo, _mk(Pow, base, _mk(Sub, expo, _ONE))),
                    _diff(base, var, memo))
        else:
            # general: u^v (v' ln u + v u'/u)
            term = _mk(Add, _mk(Mul, _diff(expo, var, memo), _call("log", base)),
                       _mk(Div, _mk(Mul, expo, _diff(base, var, memo)), base))
            d = _mk(Mul, e, term)
    elif t is Call:
        inner = _diff(e.a, var, memo)
        fn = e.fn
        if fn == "sin":
            outer = _call("cos", e.a)
        elif fn == "cos":
            outer = _mk(Neg, _call("sin", e.a))
        elif fn == "tan":
            outer = _mk(Div, _ONE, _mk(Pow, _call("cos", e.a), _TWO))
        elif fn == "exp":
            outer = e
        elif fn == "log":
            outer = _mk(Div, _ONE, e.a)
        elif fn == "sqrt":
            outer = _mk(Div, _ONE, _mk(Mul, _TWO, e))
        elif fn == "abs":
            outer = _call("sign", e.a)
        elif fn == "sign":
            outer = _ZERO
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {fn}")
        d = _mk(Mul, outer, inner)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[key] = (e, d)
    return d


# ---------------------------------------------------------------------------
# simplification: constant folding plus a few safe identities

def _num(e):
    return type(e) is Num


def _is_const(e, v):
    return type(e) is Num and e.value == v


def simplify(e):
    """e with constants folded and the identities of `_fold` applied,
    bottom-up.  A simplified tree comes back as the same object."""
    t = type(e)
    if t is Num or t is Sym:
        return e
    if t is Neg or t is Call:
        return _fold(e, simplify(e.a))
    return _fold(e, simplify(e.a), simplify(e.b))


def _program_float(v):
    """float(v) for a constant of a program; an exact value beyond float
    range raises ExprError."""
    try:
        return float(v)
    except OverflowError:
        magnitude = math.log10(abs(v.numerator)) - math.log10(v.denominator)
        raise ExprError(f"constant of about 10^{magnitude:.0f} does not fit a float") from None


#: digits of the numerator and of the denominator of an exact constant:
#: Python's default limit on converting an int to or from a string, which
#: reading a number literal, `_key` and `to_str` all do
EXACT_DIGITS = 4300
_EXACT_BOUND = 10 ** EXACT_DIGITS       # the smallest integer of too many digits


def _too_long(log10_size):
    size = f"{log10_size:.0f}" if abs(log10_size) < 1e12 else f"{log10_size:.3g}"
    return ExprError(f"constant of about 10^{size} has more than {EXACT_DIGITS} digits")


def _exact(v):
    """v, an exact constant, if its numerator and its denominator have at
    most EXACT_DIGITS digits; else ExprError."""
    if abs(v.numerator) >= _EXACT_BOUND or v.denominator >= _EXACT_BOUND:
        raise _too_long(math.log10(abs(v.numerator)) - math.log10(v.denominator))
    return v


def _constant(op, x, y):
    """Num(op(x, y)) for two constants.  A float operand takes the other as a
    program float, so an exact value beyond float range raises ExprError
    there; an exact result is kept exact, whatever its size as a float, up
    to EXACT_DIGITS digits (see `_exact`)."""
    if type(x) is float or type(y) is float:
        return Num(op(_program_float(x), _program_float(y)))
    return Num(_exact(op(x, y)))


def _power(x, p):
    """Num(x^p) for an exact x and an integer p.  Its size is checked from
    bit lengths before it is computed: an integer of b bits raised to |p|
    has at least |p| (b - 1) + 1 bits, so a power of more than EXACT_DIGITS
    digits raises ExprError at once, and any other has at most about
    2 |p| (b - 1) bits, cheap to compute."""
    bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if abs(p) * (bits - 1) >= _EXACT_BOUND.bit_length():
        try:
            size = p * (math.log10(abs(x.numerator)) - math.log10(x.denominator))
        except OverflowError:       # an exponent beyond float range
            size = math.inf
        raise _too_long(size)
    return _constant(operator.pow, x, p)


def _negate(a, e=None):
    """-a for a simplified a; e, if given, is a Neg node whose operand
    simplified to a."""
    if _num(a):
        return Num(-a.value)
    if type(a) is Neg:
        return a.a
    return e if e is not None and a is e.a else Neg(a)


def _fold(e, a, b=None):
    """Node e simplified, given its operands simplified (b for a binary
    node): e itself when no rule applies and its operands came back
    unchanged."""
    t = type(e)
    if t is Neg:
        return _negate(a, e)
    if t is Call:
        if _num(a) and e.fn == "sqrt" and isinstance(a.value, Fraction) and a.value >= 0:
            num_root = math.isqrt(a.value.numerator)
            den_root = math.isqrt(a.value.denominator)
            if num_root * num_root == a.value.numerator and den_root * den_root == a.value.denominator:
                return Num(Fraction(num_root, den_root))
        if _is_const(a, 0) and e.fn in ("sin", "tan"):
            return Num(Fraction(0))
        if _is_const(a, 0) and e.fn == "cos":
            return Num(Fraction(1))
        if _is_const(a, 0) and e.fn == "exp":
            return Num(Fraction(1))
        if _is_const(a, 1) and e.fn == "log":
            return Num(Fraction(0))
        return e if a is e.a else Call(e.fn, a)
    same = a is e.a and b is e.b
    if t is Add:
        if _is_const(a, 0):
            return b
        if _is_const(b, 0):
            return a
        if _num(a) and _num(b):
            return _constant(operator.add, a.value, b.value)
        pyth = _pythagorean(a, b)
        if pyth is not None:
            return pyth
        return e if same else Add(a, b)
    if t is Sub:
        if _is_const(b, 0):
            return a
        if _num(a) and _num(b):
            return _constant(operator.sub, a.value, b.value)
        if _is_const(a, 0):
            return _negate(b)
        if a is b or _key(a) == _key(b):
            return Num(Fraction(0))
        return e if same else Sub(a, b)
    if t is Mul:
        if _is_const(a, 0) or _is_const(b, 0):
            return Num(Fraction(0))
        if _is_const(a, 1):
            return b
        if _is_const(b, 1):
            return a
        if _num(a) and _num(b):
            return _constant(operator.mul, a.value, b.value)
        if _is_const(a, -1):
            return _negate(b)
        if _is_const(b, -1):
            return _negate(a)
        return e if same else Mul(a, b)
    if t is Div:
        if _is_const(b, 1):
            return a
        if _is_const(a, 0) and not _is_const(b, 0):
            return Num(Fraction(0))
        if _num(a) and _num(b) and not _is_const(b, 0):
            if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
                return _constant(operator.truediv, a.value, b.value)
        return e if same else Div(a, b)
    if t is Pow:
        if _is_const(b, 0):
            return Num(Fraction(1))
        if _is_const(b, 1):
            return a
        if _num(a) and _num(b) and isinstance(b.value, Fraction) and b.value.denominator == 1:
            p = b.value.numerator
            if isinstance(a.value, Fraction) and (p >= 0 or a.value != 0):
                return _power(a.value, p)
        return e if same else Pow(a, b)
    raise TypeError(f"not an Expr: {e!r}")


def _pythagorean(a, b):
    """Recognize sin(u)^2 + cos(u)^2 -> 1."""
    def square_of(e):
        if type(e) is Pow and _is_const(e.b, 2) and type(e.a) is Call:
            return e.a
        return None

    sa, sb = square_of(a), square_of(b)
    if sa is None or sb is None:
        return None
    fns = {sa.fn, sb.fn}
    if fns == {"sin", "cos"} and _key(sa.a) == _key(sb.a):
        return Num(Fraction(1))
    return None


# ---------------------------------------------------------------------------
# compilation: one straight-line program per expression list, on numpy

_NUMPY_ENV = {
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sign": np.sign,
    # libm's pow elementwise (np.power's vectorized loops differ from it
    # in the last bit)
    "_pow": np.float_power,
}

_FORMATS = {Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}", Div: "{} / {}",
            Pow: "_pow({}, {})", Neg: "-{}"}


def _program(exprs, names):
    """Straight-line source of `_compiled(_x)`, returning each distinct
    value of exprs once, as a tuple in order of first use, and the operand
    text of each expression's value.  Nodes are
    hash-consed bottom-up: a node's key is its operator and its operands'
    texts, each distinct key is computed once, into the local `_t<id>`, and
    its id is its number in order of first use.  The operations and their
    order are those of the trees, so each value is bitwise what evaluating
    its tree would give."""
    lines = []
    temps = {}          # node key -> local name
    seen = {}           # id(node) -> operand text; trees share node objects

    def visit(e):
        text = seen.get(id(e))
        if text is not None:
            return text
        t = type(e)
        if t is Num:
            text = repr(_program_float(e.value))
            if text[0] == "-":
                text = f"({text})"
        else:
            if t is Sym:
                if e.name not in names:
                    raise ExprError(f"unbound symbol {e.name!r}")
                key = (t, e.name)
                code = names[e.name]
            elif t is Call:
                key = (e.fn, visit(e.a))
                code = f"{e.fn}({key[1]})"
            elif t in _FORMATS:
                key = (t, visit(e.a)) if t is Neg else (t, visit(e.a), visit(e.b))
                code = _FORMATS[t].format(*key[1:])
            else:
                raise TypeError(f"not an Expr: {e!r}")
            text = temps.get(key)
            if text is None:
                text = temps[key] = f"_t{len(temps)}"
                lines.append(f"    {text} = {code}\n")
        seen[id(e)] = text
        return text

    outputs = [visit(e) for e in exprs]
    distinct = dict.fromkeys(outputs)
    return (f"def _compiled(_x):\n{''.join(lines)}"
            f"    return ({''.join(o + ', ' for o in distinct)})\n", outputs)


def _plain(point):
    """A point as a list of Python floats, for messages."""
    return [float(x) for x in point]


def undefined_at(point):
    """The ExprEvalError of a point at which a value is NaN or inf."""
    return ExprEvalError(f"expression undefined at {_plain(point)}")


def compile_exprs(exprs, coords, params=None):
    """Compile a flat list of K Exprs into one evaluator.

    coords: ordered coordinate names, bound positionally from the argument.
    params: dict of parameter name -> value, baked in at compile time.

    The trees are compiled as given, so callers pass simplified ones
    (`simplify`; metric components and their derivatives are).  They
    become one straight-line program in which every distinct
    subexpression is computed once (`evaluate.source`), run on numpy:

    * a stack (B, n) (a 2-D array) runs on the columns of its contiguous
      transpose and returns a (B, K) array.  It never raises for a row: a
      row where an operation is undefined holds NaN or inf, left for the
      caller.  A row's values do not depend on the stack's size or the
      row's position in it;
    * a point (n,) (a sequence, or a 1-D array) runs as a one-row stack
      and returns a tuple of K floats, or raises ExprEvalError
      ("expression undefined at ...") if one of them is NaN or inf.

    Powers use libm's pow.
    """
    exprs = list(exprs)
    params = dict(params or {})
    names = {}
    for idx, c in enumerate(coords):
        names[c] = f"_x[{idx}]"
    consts = {}
    for pname, pval in params.items():
        if pname in names:
            raise ExprError(f"parameter {pname!r} shadows a coordinate")
        key = f"_p_{pname}"
        names[pname] = key
        consts[key] = float(pval)
    src, outputs = _program(exprs, names)
    scope = dict(_NUMPY_ENV, **consts)
    exec(compile(src, "<compiled expressions>", "exec"), scope)
    fn = scope["_compiled"]
    # the program returns each distinct output once; gather all K from them
    slot = {}
    for o in outputs:
        slot.setdefault(o, len(slot))
    gather = np.array([slot[o] for o in outputs], dtype=np.intp)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        X = x if x.ndim == 2 else x[None]
        out = np.empty((len(slot), len(X)))
        with np.errstate(all="ignore"):
            try:
                vals = fn(np.ascontiguousarray(X.T))
            except (ValueError, ZeroDivisionError, OverflowError):
                # only an operation on constants raises here, for every row
                vals = (math.nan,) * len(slot)
        for row, v in zip(out, vals):
            row[...] = v
        # C-contiguous (B, K), so that a row's later products do not
        # depend on the stack's layout
        out = np.ascontiguousarray(out.T).take(gather, axis=1)
        if x.ndim == 2:
            return out
        if not np.isfinite(out).all():
            raise undefined_at(x)
        return tuple(out[0].tolist())

    evaluate.source = src
    return evaluate


def evaluate(e, bindings):
    """Evaluate a single Expr, simplified, with a dict of symbol values
    (one for each symbol the Expr names)."""
    names = sorted(free_symbols(e))
    fn = compile_exprs([simplify(e)], names)
    try:
        point = [float(bindings[n]) for n in names]
    except KeyError as err:
        raise ExprError(f"missing binding for symbol {err.args[0]!r}") from None
    return fn(point)[0]
