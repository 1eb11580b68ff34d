import math

import numpy as np
import pytest

from conftest import assert_close, catenoid_momentum, sphere_momentum
from revolve.curvature import (CurvatureSample, classify_mean_inverse,
                               constraint_residual, gauss_curvature,
                               gauss_from_mean, gauss_monomial, mean_curvature,
                               principal_curvatures, weingarten_residual)
from revolve.errors import (AxisSingularity, ExponentForbidden, NonPositiveMu,
                            ParamOutOfRange)
from revolve.momentum import Momentum, momentum_from_mean


def test_sphere_curvatures():
    R = 2.0
    m = sphere_momentum(R, hi=1.9)
    for x in (0.2, 1.0, 1.9):
        k_m, k_p = principal_curvatures(m, x)
        assert_close(k_m, 1.0 / R, 1e-15, "meridian")
        assert_close(k_p, 1.0 / R, 1e-15, "parallel")
        assert_close(mean_curvature(m, x), 1.0 / R, 1e-15, "H")
        assert_close(gauss_curvature(m, x), 1.0 / R ** 2, 1e-15, "K_G")


def test_catenoid_is_minimal():
    m = catenoid_momentum()
    for x in np.linspace(1.0, 4.0, 25):
        assert abs(mean_curvature(m, x)) < 1e-15
        k_m, k_p = principal_curvatures(m, x)
        assert_close(gauss_curvature(m, x), -1.0 / x ** 4, 1e-14, "K_G")
        assert_close(k_m, -k_p, 1e-15, "opposite principals")


def test_torus_curvatures():
    a, R = 2.0, 1.0
    m = Momentum(eval=lambda x: (x - a) / R, deriv=lambda x: 1.0 / R,
                 domain=(1.1, 2.9))
    for x in np.linspace(1.1, 2.9, 19):
        assert_close(mean_curvature(m, x), 1.0 / R - a / (2.0 * R * x), 1e-15, "H")
        assert_close(gauss_curvature(m, x), 1.0 / R ** 2 - a / (R ** 2 * x), 1e-15,
                     "K_G")


def test_axis_is_umbilic_when_momentum_vanishes():
    # the sphere meets the axis orthogonally: k_p inherits the limit K'(0)
    m = sphere_momentum(2.0)
    k_m, k_p = principal_curvatures(m, 0.0)
    assert k_m == k_p == 0.5


def test_axis_singularity_raised():
    m = Momentum(eval=lambda x: 0.5, deriv=lambda x: 0.0, domain=(0.0, 1.0))
    with pytest.raises(AxisSingularity):
        principal_curvatures(m, 0.0)


def test_gauss_from_mean_delaunay():
    # constant H = H0 with constant Gamma: K_G = H0^2 - 4 Gamma^2 / x^4
    H0, gamma = 1.0, 0.3
    xs = np.linspace(1.0, 5.0, 100)
    got = gauss_from_mean(lambda x: H0, gamma, xs, (1.0, 5.0), anchor=0.0)
    want = H0 ** 2 - 4.0 * gamma ** 2 / xs ** 4
    assert np.max(np.abs(got - want)) < 1e-10


def test_gauss_monomial_matches_general_coupling():
    cases = [(1.0, 1.0, 0.2), (2.0, -0.5, 0.1), (1.0, -1.5, 0.0)]
    xs = np.linspace(0.5, 3.0, 100)
    for mu, n, gamma in cases:
        got = gauss_from_mean(lambda x, mu=mu, n=n: mu * x ** n, gamma, xs,
                              (0.5, 3.0), anchor=0.0)
        want = gauss_monomial(mu, n, gamma, xs)
        assert np.max(np.abs(got - want)) < 1e-10, (mu, n, gamma)


def test_gauss_monomial_excludes_n_minus_two():
    with pytest.raises(ExponentForbidden):
        gauss_monomial(1.0, -2.0, 0.0, 1.0)


def test_constraint_residual_realizable_pair_vanishes():
    # torus pair: H = 1 - 1/x, K_G = 1 - 2/x, constants coupled through
    # gamma_H = x0 K(x0)/2 and c_G = K(x0)^2 / 2 at the anchor x0
    x0 = 1.1
    K0 = x0 - 2.0
    xs = np.linspace(1.1, 2.9, 200)
    r = constraint_residual(lambda x: 1.0 - 1.0 / x, lambda x: 1.0 - 2.0 / x,
                            x0 * K0 / 2.0, K0 ** 2 / 2.0, xs, (1.1, 2.9))
    assert np.max(np.abs(r)) < 1e-9


def test_constraint_residual_flags_mismatched_constants():
    x0 = 1.1
    K0 = x0 - 2.0
    xs = np.linspace(1.1, 2.9, 200)
    r = constraint_residual(lambda x: 1.0 - 1.0 / x, lambda x: 1.0 - 2.0 / x,
                            x0 * K0 / 2.0 + 0.1, K0 ** 2 / 2.0, xs, (1.1, 2.9))
    assert np.max(np.abs(r)) > 1e-3


@pytest.mark.parametrize("domain", [(2.0, 1.0), (1.0, math.nan), (1.0, 1.0)])
def test_bad_interval_is_a_typed_error(domain):
    # the antiderivatives of both callers refuse the interval with a
    # ValidationError (CLI exit 2), not a bare ValueError
    xs = np.array([1.5])
    with pytest.raises(ParamOutOfRange, match="bad interval"):
        gauss_from_mean(lambda x: 1.0, 0.0, xs, domain)
    with pytest.raises(ParamOutOfRange, match="bad interval"):
        constraint_residual(lambda x: 1.0, lambda x: 1.0, 0.0, 0.0, xs, domain)


def test_weingarten_residual_on_power_family():
    # K = (x/a)^q has k_m = q k_p identically
    for q in (2.0, 0.5, -0.5, -1.0, 3.0):
        m = Momentum(eval=lambda x, q=q: x ** q,
                     deriv=lambda x, q=q: q * x ** (q - 1.0),
                     domain=(0.3, 0.95) if q > 0 else (1.05, 3.0))
        for x in np.linspace(*m.domain, 11):
            assert abs(weingarten_residual(m, q, x)) < 1e-14


def test_classify_mean_inverse_trichotomy():
    b = classify_mean_inverse(0.25)
    assert b.kind == "Trigonometric"
    assert_close(b.angle, math.asin(0.5), 1e-15, "theta")

    assert classify_mean_inverse(0.5).kind == "Parabolic"
    assert classify_mean_inverse(0.5).angle is None

    b = classify_mean_inverse(math.cosh(1.0) / 2.0)
    assert b.kind == "Hyperbolic"
    assert_close(b.angle, 1.0, 1e-12, "delta")

    with pytest.raises(NonPositiveMu):
        classify_mean_inverse(0.0)


def test_curvature_sample_from_principal():
    s = CurvatureSample.from_principal(2.0, 0.5, -0.25)
    assert s.H == pytest.approx(0.125)
    assert s.K_G == pytest.approx(-0.125)


def test_curvature_sample_is_a_named_row():
    s = CurvatureSample(x=2.0, k_m=0.5, k_p=-0.25, H=0.125, K_G=-0.125)
    assert (s.x, s.k_m, s.k_p, s.H, s.K_G) == (2.0, 0.5, -0.25, 0.125, -0.125)
    assert s == CurvatureSample.from_principal(2.0, 0.5, -0.25)
    assert s == (2.0, 0.5, -0.25, 0.125, -0.125)  # a plain tuple compares equal
    x, k_m, k_p, H, K_G = s
    assert (x, K_G) == (2.0, -0.125)
    with pytest.raises(AttributeError):
        s.k_m = 1.0


def test_mean_roundtrip_through_momentum():
    # H measured from a momentum feeds back into the same momentum
    m = catenoid_momentum()
    H = lambda x: mean_curvature(m, x)
    c = 1.5 * m.eval(1.5)
    m2 = momentum_from_mean(H, c, (1.5, 3.5))
    for x in np.linspace(1.5, 3.5, 21):
        assert_close(m2.eval(x), m.eval(x), 1e-10, "mean round trip")


def test_pointwise_curvatures_take_arrays():
    from revolve.expr import parse_expr
    from revolve.momentum import momentum_from_kp

    # the README catenoid from a compiled prescription: the bits of per-point calls
    e = parse_expr("1/x^2")
    m = momentum_from_kp(e.as_function({}), (1.001, 3.0),
                         p_deriv=e.derivative().as_function({}))
    xs = np.linspace(1.001, 3.0, 101)
    for fn in (mean_curvature, gauss_curvature):
        assert fn(m, xs).tobytes() == np.array([fn(m, x) for x in xs.tolist()]).tobytes()
    # a catalog-style momentum of scalar lambdas, with a sample on the axis
    s = sphere_momentum(2.0, hi=1.9)
    xs = np.array([0.0, 0.5, 1.9])
    k_m, k_p = principal_curvatures(s, xs)
    assert k_m.tolist() == [0.5] * 3 and k_p.tolist() == [0.5] * 3
    # an axis sample where K(0) != 0 raises as the float path does
    tilted = Momentum(eval=lambda x: 0.5 + 0.1 * x, deriv=lambda x: 0.1, domain=(0.0, 1.0))
    with pytest.raises(AxisSingularity):
        mean_curvature(tilted, np.array([0.5, 0.0]))
    assert gauss_curvature(tilted, np.array([0.5]))[0] == gauss_curvature(tilted, 0.5)
