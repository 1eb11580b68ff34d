"""Parity of the fast paths with the reference code they replace.

Expression.as_function compiles the tree; the tree walker ``_eval`` (what
``Expression.__call__`` runs) is the reference for its float body, and the
float body is the reference for its array body. AnchoredAntiderivative
evaluates its spline on floats by itself; SciPy's spline is the reference.
The float paths must agree bit for bit, the array body to 4 units in the
last place, and errors must keep their type and message on every path.
"""
import math

import numpy as np
import pytest

from revolve.errors import EvaluationDomainError
from revolve.expr import FUNCTIONS, parse_expr
from revolve.quadrature import AnchoredAntiderivative

# an argument range inside each function's domain
_RANGES = {"asin": (-0.99, 0.99), "acos": (-0.99, 0.99), "acosh": (1.0, 5.0),
           "ln": (1e-3, 5.0), "sqrt": (0.0, 5.0), "tan": (-1.5, 1.5),
           "exp": (-20.0, 20.0), "sinh": (-20.0, 20.0), "cosh": (-20.0, 20.0)}

_PARAMS = {"a": 0.37, "b": -1.25, "c": 2.5}


def _assert_bit_equal(e, xs, params=_PARAMS):
    if isinstance(e, str):
        e = parse_expr(e)
    f = e.as_function(params)
    for x in xs:
        got, want = f(x), e(x, params)
        assert type(got) is float
        assert got.hex() == want.hex(), f"{e.pretty()} at x={x!r}: {got!r} != {want!r}"


def _assert_array_close(e, xs, params=_PARAMS):
    """The array body against the float body, within 4 units in the last place."""
    if isinstance(e, str):
        e = parse_expr(e)
    f = e.as_function(params)
    xs = np.asarray(xs, dtype=float)
    got = f(xs)
    want = np.array([f(x) for x in xs.tolist()])
    assert got.shape == xs.shape and got.dtype == float
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert np.all(ulps <= 4.0), f"{e.pretty()}: {ulps.max():.1f} ulps"


@pytest.mark.parametrize("fn", sorted(FUNCTIONS))
def test_compiled_functions_bit_equal(fn):
    lo, hi = _RANGES.get(fn, (-3.0, 3.0))
    xs = np.random.default_rng(1).uniform(lo, hi, 300)
    _assert_bit_equal(f"{fn}(x)", xs)
    _assert_bit_equal(f"a * {fn}(x) - {fn}(x) / c", xs)
    _assert_array_close(f"{fn}(x)", xs)


@pytest.mark.parametrize("text", [
    "x + a", "x - a", "x * a", "a / x", "x ^ c", "x ^ a",
    "-x", "-(x * b)", "b * -x", "x ^ -c", "a ^ -b", "-x ^ 2",
    "x ^ a ^ b", "(x ^ a) ^ b", "c ^ x ^ 0.5", "2 ^ 3 ^ x",
    "1 - 2 - x - 3", "x / a / b / c", "a * x * b * x * c",
    "b * (a + a * x + b * x^2 + c * x^3) * (a + 2 * b * x + 3 * c * x^2) / x",
    "sqrt(1 - (a * x / c)^2) / (x * cosh(b * x)) + abs(b - x)^1.5",
])
def test_compiled_operators_bit_equal(text):
    xs = np.random.default_rng(2).uniform(0.05, 3.0, 500)
    _assert_bit_equal(text, xs)
    _assert_bit_equal(parse_expr(text).derivative(), xs)
    _assert_array_close(text, xs)


def test_compiled_deep_expression_bit_equal():
    # nesting deep enough that the generated source spills to locals
    text = " + ".join(f"{k}.5 * x ^ {k % 4}" for k in range(300))
    _assert_bit_equal(text, [0.3, 1.1, 2.9])
    _assert_bit_equal("-" * 99 + "sin(" * 60 + "x" + ")" * 60, [5.0])
    _assert_array_close(text, [0.3, 1.1, 2.9])
    _assert_array_close("-" * 99 + "sin(" * 60 + "x" + ")" * 60, [5.0, 0.7])


def test_compiled_polynomials_array_bit_equal():
    # arithmetic and '^' only: the array body is exact
    e = parse_expr("b * (a + a * x + b * x^2 + c * x^3) * (a + 2 * b * x + 3 * c * x^2) / x")
    f = e.as_function(_PARAMS)
    xs = np.random.default_rng(4).uniform(0.05, 3.0, 10_000)
    assert f(xs).tolist() == [f(x) for x in xs.tolist()]


def test_compiled_constant_fills_the_array():
    f = parse_expr("a * 2 + sqrt(c)").as_function(_PARAMS)
    got = f(np.zeros((2, 3)))
    assert got.shape == (2, 3) and np.all(got == f(0.0))


@pytest.mark.parametrize("text, x", [
    ("ln(x)", 0.0), ("ln(x)", -1.0), ("1/(x-1)", 1.0), ("(x-9)^(1/3)", 1.0),
    ("exp(x)", 1000.0), ("acosh(x)", 0.5), ("sqrt(x)", -1.0),
    ("a * 2 + 1/(x - a)", 0.37),
])
def test_compiled_domain_errors_match(text, x):
    e = parse_expr(text)
    with pytest.raises(EvaluationDomainError) as want:
        e(x, _PARAMS)
    with pytest.raises(EvaluationDomainError) as got:
        e.as_function(_PARAMS)(x)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    # the array path: the fault sends the array through the float body
    with pytest.raises(EvaluationDomainError) as got:
        e.as_function(_PARAMS)(np.array([10.0, x, 10.0]))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda t: t * math.cos(3.0 * t) + 1.0 / (t + 0.2), 0.3, 1.7),
    (lambda t: 1.0 / math.sqrt(t), 0.0, 1.0),            # inset at lo
    (lambda t: math.log(1.0 - t), 0.0, 1.0),             # inset at hi
])
def test_antiderivative_scalar_path_bit_equal(f, lo, hi):
    from scipy.interpolate import CubicHermiteSpline

    A = AnchoredAntiderivative(f, lo, hi, tol=1e-10)
    knots = A._knots
    # the reference: SciPy's spline through the cache's knots, values and slopes
    spline = CubicHermiteSpline(knots, A._values, A._slopes)
    for c, want in zip(A._coef, spline.c):
        assert c.tobytes() == want.tobytes()
    rng = np.random.default_rng(3)
    points = [A._inset_lo, A._inset_hi, *knots.tolist(),
              *rng.uniform(A._inset_lo, A._inset_hi, 10_000).tolist()]
    for x in points:
        got = A(x)
        assert type(got) is float
        assert got.hex() == float(spline(x)).hex(), x
    # numpy scalars take the same path; knots hit exactly stay in their interval
    for x in knots[::7]:
        assert A(x).hex() == float(spline(x)).hex()
        assert type(A(x)) is float
    # the array path gives the spline's bits, inside a mixed array too
    xs = np.asarray(points)
    assert A(xs).tobytes() == spline(xs).tobytes()
    mixed = np.concatenate(([A.lo], xs[:50], [A.hi]))  # the ends may be outside
    assert A(mixed)[1:-1].tobytes() == spline(xs[:50]).tobytes()
