"""A small expression language for curvature prescriptions on the CLI.

Grammar (lowest to highest precedence)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative, allows a^-b
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds tighter than '*' and '/', looser than '^'. Evaluation is
total: anything outside a function's domain raises EvaluationDomainError
instead of propagating a platform error. Expressions can be differentiated
symbolically with respect to x (all other names are treated as constants).

:meth:`Expression.as_function` compiles the tree once into a Python function
with the parameters and literals bound as constants. For a float it performs
the same float operations in the same order as the tree walker ``_eval``, so
its results are bit-identical. When an operation fails, the function
evaluates the tree again with ``_eval`` at the same x, so domain errors keep
their typed EvaluationDomainError and its message. For a NumPy array it
runs a second body, emitted from the same tree with NumPy's functions, in
one pass over the array: in the array protocol of the quadrature layer
(marked with ``takes_arrays``), within a few units in the last place of the
float body, and exact where the expression uses only arithmetic and '^'. A
floating-point fault in that body sends the array through the float body
point by point, so errors are the float body's.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Union

import numpy as np

from .errors import EvaluationDomainError, ExpressionSyntaxError, UnknownIdentifier
from .quadrature import _pointwise, takes_arrays

__all__ = ["Expression", "parse_expr", "FUNCTIONS"]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "acosh": math.acosh, "abs": abs,
}

Node = Union["Num", "Var", "Call", "Neg", "Bin"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Node


@dataclass(frozen=True)
class Neg:
    arg: Node


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: Node
    right: Node


# --- smart constructors (light constant folding) ------------------------

def _num(v: float) -> Num:
    return Num(float(v))


def _neg(a: Node) -> Node:
    if isinstance(a, Num):
        return _num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return _neg(b)
    return Bin("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if isinstance(a, Num):
        if a.value == 0.0:
            return _num(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return _num(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return Bin("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and a.value == 0.0:
        return _num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Bin("/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if isinstance(b, Num):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _num(1.0)
    return Bin("^", a, b)


# --- tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), m.start()
    yield "end", "", len(text)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {val or 'end of input'!r}", off)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {val!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Bin(val, node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = Bin(val, node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, val, off = self.next()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):  # pretty() would write it as 'inf'
                raise ExpressionSyntaxError(f"numeric literal {val!r} overflows a float", off)
            return Num(value)
        if kind == "name":
            pk, pv, _ = self.peek()
            if pk == "op" and pv == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifier(val, off)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a value, found {val or 'end of input'!r}", off)


# --- evaluation ----------------------------------------------------------

def _eval(node: Node, x: float, params: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "x":
            return x
        try:
            return float(params[node.name])
        except KeyError:
            raise UnknownIdentifier(node.name) from None
    if isinstance(node, Neg):
        return -_eval(node.arg, x, params)
    if isinstance(node, Call):
        v = _eval(node.arg, x, params)
        try:
            return float(FUNCTIONS[node.fn](v))
        except (ValueError, OverflowError) as exc:
            raise EvaluationDomainError(f"{node.fn}({v!r}): {exc}") from None
    a = _eval(node.left, x, params)
    b = _eval(node.right, x, params)
    try:
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return math.pow(a, b)
    except ZeroDivisionError:
        raise EvaluationDomainError(f"division by zero at x={x!r}") from None
    except (ValueError, OverflowError) as exc:
        raise EvaluationDomainError(f"{a!r} ^ {b!r}: {exc}") from None


# --- compilation ---------------------------------------------------------

# Subexpressions nested deeper than this are assigned to a local first, which
# keeps the generated source under the parser's parenthesis nesting limit.
_MAX_NESTING = 50

# The NumPy twin of each FUNCTIONS entry, for the array body. '^' becomes
# np.float_power, which calls the C library's pow as math.pow does (np.power
# takes SIMD and squaring shortcuts that differ in the last bit).
_ARRAY_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "acosh": np.arccosh, "abs": np.abs,
}


@lru_cache(maxsize=256)
def _code(source: str):
    """The compiled source. It names constants, never holds their values, so
    one expression text with other parameter values reuses it."""
    return compile(source, "<expression>", "exec")


def _compile(root: Node, params: Mapping[str, float]) -> Callable[[float], float]:
    """One Python function computing ``_eval(root, float(x), params)``, and
    the same elementwise when x is a NumPy array.

    Every node becomes the same Python float operation ``_eval`` performs,
    fully parenthesised so association and evaluation order match; '^' stays
    ``math.pow`` so a negative base with a fractional exponent still raises.
    The array body is emitted from the same tree with the NumPy twins and
    runs under ``np.errstate(all="raise")``; on any floating-point fault the
    array is evaluated again point by point, so domain errors surface as
    they do for a float.
    """
    consts: dict[str, object] = {}

    def bind(value: object) -> str:
        name = f"_k{len(consts)}"
        consts[name] = value
        return name

    def body(array: bool, indent: str) -> list[str]:
        spills: list[str] = []

        def emit(node: Node) -> tuple[str, int]:
            if isinstance(node, Num):
                return bind(node.value), 0
            if isinstance(node, Var):
                return ("x" if node.name == "x" else bind(float(params[node.name]))), 0
            if isinstance(node, Neg):
                arg, depth = emit(node.arg)
                code, depth = f"(-{arg})", depth + 1
            elif isinstance(node, Call):
                arg, depth = emit(node.arg)
                if array:
                    code, depth = f"{bind(_ARRAY_FUNCTIONS[node.fn])}({arg})", depth + 1
                else:
                    code, depth = f"_float({bind(FUNCTIONS[node.fn])}({arg}))", depth + 2
            else:
                (a, da), (b, db) = emit(node.left), emit(node.right)
                depth = max(da, db) + 1
                pow_ = "_fpow" if array else "_pow"
                code = f"{pow_}({a}, {b})" if node.op == "^" else f"({a} {node.op} {b})"
            if depth < _MAX_NESTING:
                return code, depth
            name = f"_{'a' if array else 't'}{len(spills)}"
            spills.append(f"{indent}{name} = {code}")
            return name, 0

        code, _ = emit(root)
        if array and not _contains_x(root):
            code = f"_full(x.shape, {code})"
        return [*spills, f"{indent}return {code}"]

    scalar_body = body(False, " " * 12)
    array_body = body(True, " " * 20)
    args = ", ".join(["_float", "_pow", "_fpow", "_full", "_eval", "_root", "_params",
                      "_ndarray", "_asarray", "_errstate", "_pointwise", *consts])
    source = "\n".join([
        f"def _make({args}):",
        "    def f(x):",
        "        if isinstance(x, _ndarray):",
        "            x = _asarray(x, dtype=float)",
        "            try:",
        "                with _errstate(all='raise'):",
        *array_body,
        "            except FloatingPointError:",
        "                return _pointwise(f, x)",
        "        x = _float(x)",
        "        try:",
        *scalar_body,
        "        except (ZeroDivisionError, ValueError, OverflowError):",
        "            return _eval(_root, x, _params)",
        "    return f",
    ])
    namespace: dict[str, object] = {}
    exec(_code(source), namespace)
    return takes_arrays(namespace["_make"](
        float, math.pow, np.float_power, np.full, _eval, root, params,
        np.ndarray, np.asarray, np.errstate, _pointwise, *consts.values()))


# --- differentiation (with respect to x) ---------------------------------

def _contains_x(node: Node) -> bool:
    if isinstance(node, Num):
        return False
    if isinstance(node, Var):
        return node.name == "x"
    if isinstance(node, Neg):
        return _contains_x(node.arg)
    if isinstance(node, Call):
        return _contains_x(node.arg)
    return _contains_x(node.left) or _contains_x(node.right)


def _diff(node: Node) -> Node:
    if isinstance(node, Num):
        return _num(0.0)
    if isinstance(node, Var):
        return _num(1.0) if node.name == "x" else _num(0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg))
    if isinstance(node, Call):
        u, du = node.arg, _diff(node.arg)
        table: dict[str, Callable[[], Node]] = {
            "sin": lambda: _mul(Call("cos", u), du),
            "cos": lambda: _neg(_mul(Call("sin", u), du)),
            "tan": lambda: _div(du, _pow(Call("cos", u), _num(2.0))),
            "sinh": lambda: _mul(Call("cosh", u), du),
            "cosh": lambda: _mul(Call("sinh", u), du),
            "tanh": lambda: _div(du, _pow(Call("cosh", u), _num(2.0))),
            "exp": lambda: _mul(Call("exp", u), du),
            "ln": lambda: _div(du, u),
            "sqrt": lambda: _div(du, _mul(_num(2.0), Call("sqrt", u))),
            "asin": lambda: _div(du, Call("sqrt", _sub(_num(1.0), _pow(u, _num(2.0))))),
            "acos": lambda: _neg(_div(du, Call("sqrt", _sub(_num(1.0), _pow(u, _num(2.0)))))),
            "atan": lambda: _div(du, _add(_num(1.0), _pow(u, _num(2.0)))),
            "acosh": lambda: _div(du, Call("sqrt", _sub(_pow(u, _num(2.0)), _num(1.0)))),
            "abs": lambda: _div(_mul(u, du), Call("abs", u)),
        }
        return table[node.fn]()
    da, db = _diff(node.left), _diff(node.right)
    a, b = node.left, node.right
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _num(2.0)))
    # power
    if not _contains_x(b):
        return _mul(_mul(b, _pow(a, _sub(b, _num(1.0)))), da)
    if not _contains_x(a):
        return _mul(_mul(_pow(a, b), Call("ln", a)), db)
    return _mul(_pow(a, b), _add(_mul(db, Call("ln", a)), _div(_mul(b, da), a)))


# --- pretty printing ------------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40}


def _render(node: Node, ctx: int) -> str:
    if isinstance(node, Num):
        v = node.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return _render(Neg(_num(-v)), ctx)
        text = repr(v)
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _render(node.arg, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if ctx > _PREC["neg"] else out
    prec = _PREC[node.op]
    if node.op == "^":
        left = _render(node.left, prec + 1)
        right = _render(node.right, _PREC["neg"])
        out = f"{left}^{right}"
    else:
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
        out = f"{left} {node.op} {right}"
    return f"({out})" if ctx > prec else out


def _variables(node: Node, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _variables(node.arg, out)
    elif isinstance(node, Call):
        _variables(node.arg, out)
    elif isinstance(node, Bin):
        _variables(node.left, out)
        _variables(node.right, out)


@dataclass(frozen=True)
class Expression:
    """A parsed expression in the variable x with named constant parameters."""

    root: Node
    text: str = ""

    def __call__(self, x: float, params: Mapping[str, float] | None = None) -> float:
        return _eval(self.root, float(x), params or {})

    def variables(self) -> set[str]:
        out: set[str] = set()
        _variables(self.root, out)
        return out

    def parameters(self) -> set[str]:
        return self.variables() - {"x"}

    def derivative(self) -> "Expression":
        d = _diff(self.root)
        return Expression(d, _render(d, 0))

    def pretty(self) -> str:
        return _render(self.root, 0)

    def as_function(self, params: Mapping[str, float] | None = None) -> Callable[[float], float]:
        p = dict(params or {})
        missing = self.parameters() - set(p)
        if missing:
            raise UnknownIdentifier(sorted(missing)[0])
        return _compile(self.root, p)


def parse_expr(text: str) -> Expression:
    """Parse expression text; raises ExpressionSyntaxError / UnknownIdentifier."""
    root = _Parser(text).parse()
    return Expression(root, text)
