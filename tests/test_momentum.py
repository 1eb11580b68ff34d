import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import assert_close
from revolve.curvature import principal_curvatures
from revolve.errors import (AxisSingularity, DomainViolation, NegativeRadicand,
                            ParamOutOfRange, SingularAxis)
from revolve.expr import parse_expr
from revolve.mesh import fundamental_forms
from revolve.momentum import (Momentum, admissible_intervals,
                              momentum_from_gauss, momentum_from_km,
                              momentum_from_kp, momentum_from_mean)
from revolve.quadrature import AnchoredAntiderivative


def test_momentum_dataclass_basics():
    m = Momentum(eval=lambda x: 0.5, deriv=lambda x: 0.0, domain=(1.0, 2.0))
    assert m.width == 1.0
    assert list(m.sample([1.0, 1.5])) == [0.5, 0.5]
    with pytest.raises(ParamOutOfRange):
        Momentum(eval=lambda x: 0.0, deriv=lambda x: 0.0, domain=(2.0, 1.0))
    with pytest.raises(ParamOutOfRange):
        Momentum(eval=lambda x: 0.0, deriv=lambda x: 0.0, domain=(0.0, math.inf))


def test_kp_prescription_is_rigid_catenoid():
    # parallels curve like 1/x^2  =>  K = 1/x, the unit catenoid
    m = momentum_from_kp(lambda x: 1.0 / x ** 2, (1.001, 3.0))
    for x in np.linspace(1.001, 3.0, 17):
        assert_close(m.eval(x), 1.0 / x, 1e-14, "K")
        assert_close(m.deriv(x), -1.0 / x ** 2, 1e-9, "K'")


def test_kp_rejects_momentum_above_one():
    with pytest.raises(DomainViolation):
        momentum_from_kp(lambda x: 1.0, (0.5, 2.0))  # K = x exceeds 1 at x > 1


def test_km_prescription_anchors_at_left_end():
    # k_m = 1/x  =>  K = c + ln(x/lo)
    m = momentum_from_km(lambda x: 1.0 / x, -0.5, (1.0, 2.0))
    for x in (1.0, 1.3, 2.0):
        assert_close(m.eval(x), -0.5 + math.log(x), 1e-12, "K")
    assert_close(m.deriv(1.7), 1.0 / 1.7, 1e-12, "K'")


def test_km_anchor_outside_domain():
    # anchoring at 0 is allowed when the integrand is integrable there
    m = momentum_from_km(lambda x: 2.0 * x, 0.0, (1.0, 1.4), anchor=0.0)
    assert_close(m.eval(1.2), 1.2 ** 2, 1e-12, "K anchored at 0")


def test_mean_constant_prescription_is_delaunay():
    # 2H = K' + K/x with H = H0 integrates to K = H0*x + 2*Gamma/x
    H0, gamma = 1.0, 0.3
    m = momentum_from_mean(lambda x: H0, 2.0 * gamma, (0.8, 1.2), anchor=0.0)
    for x in np.linspace(0.8, 1.2, 9):
        assert_close(m.eval(x), H0 * x + 2.0 * gamma / x, 1e-12, "Delaunay K")


def test_mean_singular_axis_detected():
    # with c != 0 the quotient (2 int xH + c)/x blows up at x = 0
    with pytest.raises(SingularAxis):
        momentum_from_mean(lambda x: 0.1, 0.5, (0.0, 0.9))


def test_mean_regular_through_axis():
    # c = 0 and smooth H: K(0) = 0 with a finite limit
    m = momentum_from_mean(lambda x: 0.4, 0.0, (0.0, 0.9))
    assert m.eval(0.0) == 0.0
    assert_close(m.eval(0.5), 0.4 * 0.5, 1e-12, "K near axis")


def test_gauss_prescription_sphere():
    # K_G = 1/R^2 with K(lo) anchored so that K = x/R on the sphere
    R = 2.0
    m = momentum_from_gauss(lambda x: 1.0 / R ** 2, 0.0, +1, (0.0, 1.9), anchor=0.0)
    for x in (0.3, 1.0, 1.9):
        assert_close(m.eval(x), x / R, 1e-12, "sphere K")


def test_gauss_sign_branch_and_radicand():
    with pytest.raises(ParamOutOfRange):
        momentum_from_gauss(lambda x: 1.0, 0.0, 2, (1.0, 2.0))
    with pytest.raises(NegativeRadicand) as ei:
        momentum_from_gauss(lambda x: -1.0, 0.1, +1, (1.0, 3.0))
    lo, hi = ei.value.interval
    assert 1.0 <= lo < hi <= 3.0  # reports where the radicand is negative

    m = momentum_from_gauss(lambda x: 1.0, 0.04, -1, (0.1, 0.7), anchor=0.0)
    assert m.eval(0.3) < 0.0  # sigma = -1 picks the negative branch


def test_admissible_intervals_splits_at_unit_momentum():
    # K = x on [0, 2.5] is admissible only up to x = 1
    m = Momentum(eval=lambda x: x, deriv=lambda x: 1.0, domain=(0.0, 2.5))
    ivs = admissible_intervals(m)
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo == 0.0
    assert_close(hi, 1.0, 1e-10, "edge at K = 1")

    # K = 1.2 sin(x) on [0, 2 pi] dips below 1 in bands around the zeros
    m2 = Momentum(eval=lambda x: 1.2 * math.sin(x),
                  deriv=lambda x: 1.2 * math.cos(x),
                  domain=(0.0, 2.0 * math.pi))
    ivs2 = admissible_intervals(m2)
    assert len(ivs2) == 3
    x_edge = math.asin(1.0 / 1.2)
    assert_close(ivs2[0][1], x_edge, 1e-9, "first band edge")
    assert_close(ivs2[1][0], math.pi - x_edge, 1e-9, "second band start")


def test_admissible_intervals_whole_domain():
    m = Momentum(eval=lambda x: 0.3, deriv=lambda x: 0.0, domain=(1.0, 4.0))
    assert admissible_intervals(m) == [(1.0, 4.0)]


def test_anchored_antiderivative_matches_closed_forms():
    A = AnchoredAntiderivative(math.exp, 0.0, 2.0)
    xs = np.linspace(0.0, 2.0, 23)
    want = np.exp(xs) - 1.0
    got = np.asarray(A(xs), dtype=float)
    assert np.max(np.abs(got - want)) < 1e-12

    B = AnchoredAntiderivative(lambda t: 1.0 / t, 1.0, 5.0, anchor=2.0)
    assert_close(float(B(4.0)), math.log(2.0), 1e-12, "log antiderivative")
    assert_close(float(B(1.0)), -math.log(2.0), 1e-12, "left of anchor")



def _deriv_cases():
    from revolve.expr import parse_expr
    H = parse_expr("1 + x^2").as_function({})  # an array-first prescription
    G = parse_expr("1/(4*x)").as_function({})
    # (kind, momentum, points, K' at the first point or None)
    return [
        # mean through the axis: K' = 2H - K/x, and H(0) = 1 on the axis,
        # where K = x + x^3/2
        ("mean", momentum_from_mean(H, 0.0, (-0.5, 0.5), anchor=0.0),
         [0.0, -1e-15, 1e-15, -0.25, 1e-13, 0.5], 1.0),
        ("mean", momentum_from_mean(lambda x: 1.0, 0.12, (0.07, 0.93), anchor=0.0),
         [0.07, 0.3, 0.93], None),
        # Gauss: K' = sigma x G / sqrt(r), with r = 0 at the anchor 0.5
        ("gauss", momentum_from_gauss(lambda x: 1.0, 0.0, 1, (0.5, 0.9), anchor=0.5),
         [0.5, 0.7, 0.9], math.inf),
        ("gauss", momentum_from_gauss(lambda x: 1.0, 0.0, -1, (0.5, 0.9), anchor=0.5),
         [0.5, 0.7, 0.9], -math.inf),
        ("gauss", momentum_from_gauss(lambda x: 4.0 * x - 2.0, 0.0, 1, (0.5, 0.9),
                                      anchor=0.5), [0.5, 0.6, 0.9], math.nan),
        ("gauss", momentum_from_gauss(G, 0.0, 1, (0.001, 2.0), anchor=0.0),
         [0.001, 1.0, 2.0], None),
    ]


@pytest.mark.parametrize("case", range(6))
def test_deriv_of_an_array_matches_per_point_calls(case):
    # the array forms of K' for the mean and Gauss kinds agree with their
    # float path to 4 ulps of the larger term, and give its H(0) on the axis
    # and its inf or nan where the radicand is 0 off the axis
    kind, m, points, first = _deriv_cases()[case]
    xs = np.concatenate((points, np.linspace(*m.domain, 41)))
    got = m.deriv(xs)
    want = np.array([m.deriv(float(x)) for x in xs])
    assert got.shape == xs.shape
    if first is not None:
        assert_array_equal(got[:1], [first])
        assert_array_equal(want[:1], [first])
    with np.errstate(all="ignore"):
        k_over_x = m.sample(xs) / xs
        # mean: the terms 2H = K' + K/x and K/x; Gauss: K' itself
        term = (np.maximum(np.abs(want + k_over_x), np.abs(k_over_x)) if kind == "mean"
                else np.abs(want))
        ok = (got == want) | (np.isnan(got) & np.isnan(want)) | (
            np.abs(got - want) <= 4.0 * np.spacing(term))
    assert np.all(ok), (xs[~ok], got[~ok], want[~ok])


def test_momentum_keeps_the_callables_it_was_given():
    # revbench's traced runs rebuild a momentum around a counting deriv and
    # read the count back through m.deriv, so neither callable is wrapped
    class Counted:
        def __init__(self, fn):
            self.fn, self.n = fn, 0

        def __call__(self, x):
            self.n += 1
            return self.fn(x)

    built = momentum_from_mean(lambda x: 1.0, 0.12, (0.2, 0.8), anchor=0.0)
    ev, dv = Counted(built.eval), Counted(built.deriv)
    m = Momentum(ev, dv, built.domain)
    assert m.eval is ev and m.deriv is dv
    m.deriv(0.5)
    assert m.deriv.n == 1


@pytest.mark.parametrize("build", [
    lambda: momentum_from_kp(lambda x: 0.5, (0.1, 1.0)),
    lambda: momentum_from_kp(lambda x: 0.5, (0.1, 1.0), p_deriv=lambda x: 0.0),
    lambda: momentum_from_km(lambda x: 0.5, 0.1, (0.1, 1.0)),
    lambda: momentum_from_mean(lambda x: 0.5, 0.0, (0.0, 1.0)),
    lambda: momentum_from_gauss(lambda x: 0.5, 0.0, 1, (0.0, 1.0)),
], ids=["kp", "kp-p_deriv", "km", "mean", "gauss"])
def test_a_momentum_dies_with_its_last_reference(build):
    # no closure of a momentum refers to itself, so with the cyclic
    # collector off its callables go at del m
    m = build()
    m.deriv(np.array([0.2, 0.5]))
    gc.disable()
    try:
        refs = [weakref.ref(m.eval), weakref.ref(m.deriv)]
        del m
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


_ONE_OVER_X = [lambda x: 1.0 / x, parse_expr("1/x").as_function({})]


@pytest.mark.parametrize("G", _ONE_OVER_X, ids=["lambda", "compiled"])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_gauss_deriv_on_the_axis_needs_a_finite_prescription(G, c):
    # K_G = 1/x has no value at x = 0: K' there, on the float and the array
    # path, and the curvatures there are a typed error, not a bare
    # ZeroDivisionError or EvaluationDomainError; off the axis K' = 1/K
    m = momentum_from_gauss(G, c, 1, (0.0, 1.0))
    for call in (lambda: m.deriv(0.0), lambda: m.deriv(np.array([0.0, 0.5])),
                 lambda: principal_curvatures(m, 0.0),
                 lambda: principal_curvatures(m, np.array([0.0, 0.5]))):
        with pytest.raises(AxisSingularity):
            call()
    assert_close(m.deriv(0.5), 1.0 / math.sqrt(1.0 + c), 1e-12, "K' = 1/K")


@pytest.mark.parametrize("F", _ONE_OVER_X, ids=["lambda", "compiled"])
def test_points_next_to_the_axis_of_a_domain_without_it_are_off_the_axis(F):
    # (1e-15, 1) comes within 1e-13 of the width of the axis without holding
    # it: K and K' at its left end are the off-axis formulas, and 1/x is
    # never evaluated at 0; nor are the curvatures and the fundamental
    # forms there an AxisSingularity
    m = momentum_from_mean(F, -2e-15, (1e-15, 1.0))
    assert m.eval(1e-15) == -2.0 and m.deriv(1e-15) == pytest.approx(4e15, rel=1e-12)
    assert_array_equal(m.eval(np.array([1e-15, 0.5])), [m.eval(1e-15), m.eval(0.5)])
    assert_array_equal(m.deriv(np.array([1e-15, 0.5])), [m.deriv(1e-15), m.deriv(0.5)])
    assert principal_curvatures(m, 1e-15) == (m.deriv(1e-15), -2.0 / 1e-15)
    assert_array_equal(principal_curvatures(m, np.array([1e-15]))[1], [-2.0 / 1e-15])
    assert fundamental_forms(m, 1e-15)[1] == (m.deriv(1e-15), -2e-15)
    # K_G = 1/x with a radicand that vanishes at 1e-15: K' = x*G/K = +inf there
    g = momentum_from_gauss(F, 0.0, 1, (1e-15, 1.0))
    assert g.deriv(1e-15) == math.inf
    assert_array_equal(g.deriv(np.array([1e-15, 0.5])), [math.inf, g.deriv(0.5)])


@pytest.mark.parametrize("H", _ONE_OVER_X, ids=["lambda", "compiled"])
def test_mean_axis_check_needs_a_finite_prescription(H):
    with pytest.raises(SingularAxis, match="H has no finite value on the axis"):
        momentum_from_mean(H, 0.0, (0.0, 1.0))
