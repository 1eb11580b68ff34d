import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import richardson_deriv
from revolve.errors import (EvaluationDomainError, ExpressionSyntaxError,
                            UnknownIdentifier)
from revolve.expr import FUNCTIONS, parse_expr


def test_literals_and_precedence():
    assert parse_expr("2 + 3 * 4")(0.0) == 14.0
    assert parse_expr("(2 + 3) * 4")(0.0) == 20.0
    assert parse_expr("2 ^ 3 ^ 2")(0.0) == 512.0  # right-associative
    assert parse_expr("-2 ^ 2")(0.0) == -4.0       # ^ binds tighter than unary -
    assert parse_expr("6 / 3 / 2")(0.0) == 1.0
    assert parse_expr("1 - 2 - 3")(0.0) == -4.0
    assert parse_expr("2 * -3")(0.0) == -6.0
    assert parse_expr("x^-2")(2.0) == 0.25
    assert parse_expr("1e-3")(0.0) == 1e-3
    assert parse_expr(".5 + 0.25")(0.0) == 0.75


def test_variable_and_parameters():
    e = parse_expr("a * x + b")
    assert e.variables() == {"a", "x", "b"}
    assert e.parameters() == {"a", "b"}
    assert e(2.0, {"a": 3.0, "b": 1.0}) == 7.0
    f = e.as_function({"a": 3.0, "b": 1.0})
    assert f(2.0) == 7.0
    with pytest.raises(UnknownIdentifier):
        e.as_function({"a": 3.0})  # b missing
    with pytest.raises(UnknownIdentifier):
        e(1.0, {"a": 1.0})


def test_functions_evaluate():
    x = 0.7
    for name, fn in FUNCTIONS.items():
        arg = 1.3 if name == "acosh" else x
        got = parse_expr(f"{name}(x)")(arg)
        assert got == pytest.approx(fn(arg), abs=0.0)


def test_domain_errors_are_typed():
    with pytest.raises(EvaluationDomainError):
        parse_expr("ln(x)")(-1.0)
    with pytest.raises(EvaluationDomainError):
        parse_expr("1/x")(0.0)
    with pytest.raises(EvaluationDomainError):
        parse_expr("sqrt(x - 2)")(1.0)
    with pytest.raises(EvaluationDomainError):
        parse_expr("(-1)^0.5")(0.0)


def test_syntax_errors_carry_offset():
    for text in ("2 +", "(1 + 2", "1 2", "* 3", "sin()", "2..5"):
        with pytest.raises(ExpressionSyntaxError) as ei:
            parse_expr(text)
        assert ei.value.offset >= 0

    with pytest.raises(UnknownIdentifier):
        parse_expr("frob(x)")(1.0)


@pytest.mark.parametrize("text, literal, offset", [("1e400", "1e400", 0),
                                                   ("2*1e999*x", "1e999", 2)])
def test_an_overflowing_literal_is_a_syntax_error(text, literal, offset):
    with pytest.raises(ExpressionSyntaxError, match=f"'{literal}' overflows") as ei:
        parse_expr(text)
    assert ei.value.offset == offset


@pytest.mark.parametrize("literal", ["1.7976931348623157e308", "5e-324", "0.1", "1e16",
                                     "1e-400"])
def test_a_finite_literal_reparses_from_its_pretty_form(literal):
    e = parse_expr(literal)
    assert e(0.0) == float(literal)  # 1e-400 underflows to 0.0, as float() does
    assert parse_expr(e.pretty()).pretty() == e.pretty()


def test_derivative_matches_numeric():
    cases = [
        ("x^3 - 2*x", 1.3),
        ("sin(x) * cos(x)", 0.4),
        ("exp(-x^2)", 0.8),
        ("ln(x^2 + 1)", 1.1),
        ("1 / (x + 2)", 0.5),
        ("sqrt(x) * tanh(x)", 2.0),
        ("x^x", 1.5),  # general power: needs the full logarithmic rule
        ("a*x^2 + b", 0.9),
    ]
    params = {"a": 2.5, "b": -1.0}
    for text, x0 in cases:
        e = parse_expr(text)
        d = e.derivative().as_function(params)
        f = e.as_function(params)
        want = richardson_deriv(f, x0, 1e-3)
        assert d(x0) == pytest.approx(want, abs=1e-9), text


def test_derivative_of_constant_subtree_is_zero():
    e = parse_expr("a^2 + sin(b)")
    d = e.derivative()
    assert d(123.0, {"a": 3.0, "b": 0.5}) == 0.0


def test_pretty_reparses_to_same_values():
    texts = ["-x^2 + 3*(x - 1/x)", "sin(x)*exp(-x)/2", "a/(x^2+1) - sqrt(abs(x))"]
    for text in texts:
        e = parse_expr(text)
        r = parse_expr(e.pretty())
        for x in (0.3, 1.0, 2.7):
            assert r(x, {"a": 1.25}) == pytest.approx(e(x, {"a": 1.25}), rel=1e-15)


# randomized expression trees: pretty() must reparse and evaluate identically
_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=4.0).map(lambda v: f"{v:.3f}"),
    st.just("x"),
)


def _combine(children):
    a, b = children
    op = st.sampled_from(["+", "-", "*", "/"])
    fn = st.sampled_from(["sin", "cos", "tanh", "exp"])
    return st.one_of(
        op.map(lambda o: f"({a} {o} {b})"),
        fn.map(lambda f: f"{f}({a})"),
        st.just(f"-({a})"),
    )


_exprs = st.recursive(_leaf, lambda s: st.tuples(s, s).flatmap(_combine),
                      max_leaves=12)


@given(text=_exprs, x=st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=120, deadline=None)
def test_pretty_roundtrip_random(text, x):
    e = parse_expr(text)
    try:
        want = e(x)
    except EvaluationDomainError:
        return  # random tree divided by a zero denominator; nothing to check
    got = parse_expr(e.pretty())(x)
    assert got == want or got == pytest.approx(want, rel=1e-15)
