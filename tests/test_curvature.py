import math
import warnings

import numpy as np
import pytest

from conftest import assert_close, catenoid_momentum, sphere_momentum
from revolve.curvature import (CurvatureSample, classify_mean_inverse,
                               constraint_residual, gauss_curvature,
                               gauss_from_mean, gauss_monomial, mean_curvature,
                               principal_curvatures, weingarten_residual)
from revolve.errors import (AxisSingularity, ExponentForbidden, NonPositiveMu,
                            ParamOutOfRange)
from revolve.momentum import Momentum, momentum_from_gauss, momentum_from_mean


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


def test_gauss_from_mean_next_to_the_axis_of_a_domain_without_it():
    # H = 1/x on (1e-15, 1): int x*H + gamma = x - 1e-15 + gamma, and the
    # left end is off the axis, so K_G = 4AH/x^2 - 4A^2/x^4 there, not the
    # umbilic limit H^2 = 1e30 (gamma = 0) or AxisSingularity (gamma = 1)
    for gamma, want in ((0.0, 0.0), (1.0, 4e45 - 4e60)):
        for x in (1e-15, np.array([1e-15])):
            got = gauss_from_mean(lambda x: 1.0 / x, gamma, x, (1e-15, 1.0))
            assert float(np.ravel(got)[0]) == pytest.approx(want, rel=1e-12), gamma


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


_HALF_SPHERES = {  # the sphere of radius 1/2, K = 2x on [0, 1/2], built two ways
    "mean": lambda: momentum_from_mean(lambda x: 2.0, 0.0, (0.0, 0.5)),
    "gauss": lambda: momentum_from_gauss(lambda x: 4.0, 0.0, 1, (0.0, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(_HALF_SPHERES))
def test_curvatures_of_a_sphere_on_the_axis(kind):
    # K = x H(0) + O(x^2) for the mean kind and K^2 = G(0) x^2 + O(x^3) for
    # the Gauss kind, so K'(0) = 2 and the sphere is umbilic there, as its
    # kp build reads: H = 2 and K_G = 4, on the float and the array path
    m = _HALF_SPHERES[kind]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert m.deriv(0.0) == 2.0
        assert_close(mean_curvature(m, 0.0), 2.0, 1e-12, "H on the axis")
        assert_close(gauss_curvature(m, 0.0), 4.0, 1e-12, "K_G on the axis")
        xs = np.array([0.0, 1e-300, 1e-6])
        assert np.max(np.abs(m.deriv(xs) - 2.0)) < 1e-9
        assert np.max(np.abs(mean_curvature(m, xs) - 2.0)) < 1e-9
        assert np.max(np.abs(gauss_curvature(m, xs) - 4.0)) < 1e-9


def test_gauss_couplings_take_the_umbilic_limit_on_the_axis():
    # int x*H + gamma vanishes on the axis: K_G is H(0)^2 there (the monomial
    # family: the limit of its first term), with no nan and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gauss_from_mean(lambda x: 1.0, 0.0, np.array([0.0, 1e-300, 0.5]), (0.0, 1.0))
        assert np.max(np.abs(got - 1.0)) < 1e-12
        assert gauss_from_mean(lambda x: 1.0, 0.0, 0.0, (0.0, 1.0)) == 1.0
        assert_close(float(gauss_monomial(1.0, 1.0, 0.0, np.array([0.0, 0.5]))[1]),
                     2.0 / 9.0, 1e-15, "monomial off the axis")
        assert gauss_monomial(1.0, 1.0, 0.0, np.array([0.0, 0.5]))[0] == 0.0
        assert gauss_monomial(1.5, 0.0, 0.0, 0.0) == 2.25
        assert gauss_monomial(1.0, -1.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("call", [
    lambda: gauss_from_mean(lambda x: 1.0, 0.3, np.array([0.0, 0.5]), (0.0, 1.0)),
    lambda: gauss_monomial(1.0, 1.0, 0.3, np.array([0.0, 0.5])),
    lambda: gauss_monomial(1.0, -0.5, 0.0, 0.0),
    lambda: gauss_monomial(1.0, -3.0, 0.0, 0.0),
], ids=["gamma", "monomial gamma", "monomial diverges", "monomial n < -2"])
def test_gauss_couplings_refuse_a_singular_axis(call):
    # where int x*H + gamma does not vanish on the axis (or the limit is not
    # finite), AxisSingularity, not nan
    with pytest.raises(AxisSingularity):
        call()


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


def test_classify_mean_inverse_angle_is_finite_for_every_finite_mu():
    # delta = arccosh(2 mu) = log(4 mu) to rounding once 2 mu overflows; it
    # stays continuous across that switch, and an infinite mu is refused
    top = 0.5 * np.finfo(float).max  # the largest mu whose 2 mu is finite
    below, above = (classify_mean_inverse(mu).angle for mu in (top, np.nextafter(top, 1e309)))
    assert 0.0 <= above - below <= 4.0 * np.spacing(below)
    for mu in (1e300, 1e308, float(np.finfo(float).max)):
        assert_close(classify_mean_inverse(mu).angle, math.log(4.0) + math.log(mu), 1e-13,
                     "delta")
    assert_close(classify_mean_inverse(1e308).angle, 710.5825030032860, 1e-12, "delta")
    with pytest.raises(ParamOutOfRange, match="mu must be finite"):
        classify_mean_inverse(math.inf)
    assert issubclass(NonPositiveMu, ParamOutOfRange)


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
