import math
from collections import Counter

import numpy as np
import pytest

from conftest import catenoid_momentum, sphere_momentum
from revolve.errors import (NonIntegrableSingularity, NumericalError, QuadratureFailure,
                            RootBracketFailure)
from revolve.expr import parse_expr
from revolve.momentum import Momentum, momentum_from_mean
from revolve.quadrature import (AnchoredAntiderivative, array_callable,
                                bracketed_root, integrate, sqrt_endpoint_integral, takes_arrays)
from revolve.reconstruct import arclength, graph_height, height_displacement

TOLS = (1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("tol", TOLS)
def test_smooth_integrand(tol):
    want = math.exp(2.0) - 1.0
    assert abs(integrate(math.exp, 0.0, 2.0, tol) - want) <= tol
    assert abs(integrate(math.exp, 2.0, 0.0, tol) + want) <= tol
    got = sqrt_endpoint_integral(math.exp, 0.0, 2.0, False, False, tol)
    assert abs(got - want) <= tol


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("f, a, b, lo, hi, want", [
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, True, False, 2.0),
    (lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, False, True, 2.0),
    (lambda x: 1.0 / math.sqrt(1.0 - x * x), -1.0, 1.0, True, True, math.pi),
], ids=["low end", "high end", "both ends"])
def test_inverse_square_root_ends(tol, f, a, b, lo, hi, want):
    assert abs(sqrt_endpoint_integral(f, a, b, lo, hi, tol) - want) <= tol
    assert abs(sqrt_endpoint_integral(f, b, a, hi, lo, tol) + want) <= tol


def test_integrate_raises_on_divergent_integrand():
    with pytest.raises(QuadratureFailure):
        integrate(lambda t: 1.0 / (t - 0.3) ** 2, 0.0, 1.0)
    with pytest.raises(QuadratureFailure):
        integrate(lambda t: math.nan, 0.0, 1.0)


def test_antiderivative_anchors_below_the_domain():
    A = AnchoredAntiderivative(math.exp, -1.0, 2.0, anchor=-math.inf)
    xs = np.linspace(-1.0, 2.0, 301)
    assert np.max(np.abs(A(xs) - np.exp(xs))) < 1e-11
    B = AnchoredAntiderivative(lambda t: 1.0 / math.sqrt(t), 1.0, 4.0, anchor=0.0)
    assert np.max(np.abs(B(xs + 2.0) - 2.0 * np.sqrt(xs + 2.0))) < 1e-11


def test_antiderivative_inverse_square_root_end():
    # The upper end is singular and kept out of the cache by an inset.
    A = AnchoredAntiderivative(lambda t: 1.0 / math.sqrt(1.0 - t), -1.0, 1.0, tol=1e-10)
    xs = np.linspace(-1.0, A._inset_hi, 4001)
    err = max(abs(A(x) - (2.0 * math.sqrt(2.0) - 2.0 * math.sqrt(1.0 - x)))
              for x in xs.tolist())
    assert err < 2e-10
    assert abs(A(1.0) - 2.0 * math.sqrt(2.0)) < 2e-10


def test_antiderivative_raises_where_integrand_is_not_finite():
    # a knot lands on the pole
    with pytest.raises(QuadratureFailure):
        AnchoredAntiderivative(lambda t: 1.0 / (t - 1.0) ** 2, 0.0, 2.0)
    # no knot does: the panels around the pole never converge
    with pytest.raises(QuadratureFailure):
        AnchoredAntiderivative(lambda t: 1.0 / (t - 0.3) ** 2, 0.0, 1.0)


def test_antiderivative_evaluates_each_knot_once():
    # count every point of every call, whether it comes alone or in an array
    calls = Counter()
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        calls.update(np.atleast_1d(t).tolist())
        return np.exp(np.sin(5.0 * t)) * t

    A = AnchoredAntiderivative(f, 0.0, 2.0, tol=1e-12)
    knots = A._knots.tolist()
    assert len(knots) > 1000
    assert max(sizes) > 1000  # the knots and nodes came in arrays
    assert all(calls[x] == 1 for x in knots)


def test_antiderivative_sees_an_error_odd_about_a_panel_midpoint():
    # A'''' = 120 (t - 1/16) changes sign at the first panel's midpoint, so
    # the cubic Hermite interpolant's error is odd about it: its value there
    # is exact while its slope is not
    A = AnchoredAntiderivative(lambda t: 5.0 * (t - 0.0625) ** 4, 0.0, 2.0, tol=1e-10)
    xs = np.linspace(0.0, 2.0, 20001)
    assert np.max(np.abs(A(xs) - ((xs - 0.0625) ** 5 + 0.0625 ** 5))) <= 2e-10


# --- strips: from the anchor to the cache, and points outside it -----------

def test_strip_anchor_at_minus_infinity():
    from scipy.integrate import quad

    A = AnchoredAntiderivative(math.exp, -1.0, 2.0, anchor=-math.inf, tol=1e-12)
    assert abs(A._base - quad(math.exp, -math.inf, -1.0, epsabs=1e-14)[0]) <= 1e-12
    assert abs(A(-1.0) - math.exp(-1.0)) <= 1e-12
    # an algebraic tail: int_-inf^x dt / (1 + t^2) = atan(x) + pi/2
    B = AnchoredAntiderivative(lambda t: 1.0 / (1.0 + t * t), -1.0, 2.0,
                               anchor=-math.inf, tol=1e-12)
    for x in (-1.0, 0.0, 2.0):
        assert abs(B(x) - (math.atan(x) + 0.5 * math.pi)) <= 1e-12


def test_strip_inverse_square_root_end():
    # f(1) raises: the cache stops at an inset, the last strip takes x = 1 - v^2
    from scipy.integrate import quad

    f = lambda t: 1.0 / math.sqrt(1.0 - t)  # noqa: E731
    A = AnchoredAntiderivative(f, -1.0, 1.0, tol=1e-12)
    assert A._inset_hi < 1.0
    for x in (1.0, 1.0 - 1e-9, 1.0 - 1e-13):
        assert abs(A(x) - (2.0 * math.sqrt(2.0) - 2.0 * math.sqrt(1.0 - x))) <= 1e-12
    assert abs(A(1.0) - quad(f, -1.0, 1.0, epsabs=1e-13)[0]) <= 1e-12


def test_strip_removable_zero_over_zero_at_the_anchor():
    # gauss 1/(4x) anchored at 0 on 0:2: x*K_G = x/(4x) is 0/0 at the anchor,
    # so the strip below the cache starts where the integrand raises
    G = parse_expr("1/(4*x)").as_function({})
    A = AnchoredAntiderivative(takes_arrays(lambda t: t * G(t)), 0.0, 2.0,
                               anchor=0.0, tol=1e-12)
    assert A._inset_lo > 0.0
    for x in (0.0, 1e-12, 1e-9, A._inset_lo, 1e-3, 0.5, 2.0):
        assert abs(A(x) - 0.25 * x) <= 1e-13, x


@pytest.mark.parametrize("q", [0.55, 0.6, 0.75, 0.9])
def test_strip_end_singularity_stronger_than_inverse_square_root(q):
    # int_0^1 t^-q dt = 1/(1 - q): the strip from the anchor 0, and the one
    # from the cache past [0, 0.5] to the blow-up of (1 - t)^-q at 1, are
    # either right to their tolerance or refused, never cut off
    for f, lo, hi, anchor, x in ((lambda t: t ** -q, 1.0, 2.0, 0.0, 1.0),
                                 (lambda t: (1.0 - t) ** -q, 0.0, 0.5, None, 1.0)):
        try:
            got = AnchoredAntiderivative(f, lo, hi, anchor=anchor, tol=1e-12)(x)
        except QuadratureFailure:
            continue
        assert abs(got - 1.0 / (1.0 - q)) <= 1e-11


@pytest.mark.parametrize("q", [0.55, 0.6, 0.75, 0.9])
def test_one_refusal_rule_for_every_singular_end(q):
    # a blow-up like t^-q with q > 1/2 is refused wherever it meets the
    # square-root substitution: the strip from an anchor, the strip to a
    # point past the cache, and the arclength to an end where 1 - K^2
    # vanishes like (hi - x)^(2q)
    m = Momentum(eval=lambda x: math.sqrt(1.0 - (1.0 - x) ** (2.0 * q)),
                 deriv=lambda x: 0.0, domain=(0.1, 1.0))
    for call in (lambda: AnchoredAntiderivative(lambda t: t ** -q, 1.0, 2.0, anchor=0.0),
                 lambda: AnchoredAntiderivative(lambda t: (1.0 - t) ** -q, 0.0, 0.5)(1.0),
                 lambda: arclength(m, 0.2, 1.0)):
        with pytest.raises(NonIntegrableSingularity):
            call()
    assert issubclass(NonIntegrableSingularity, QuadratureFailure)
    # graph_height reads the trace's band, which refuses such an end as a
    # degenerate turning point: a NumericalError too
    with pytest.raises(NumericalError):
        graph_height(m, 0.2, 1.0)


@pytest.mark.parametrize("q", [0.1, 0.3, 0.45, 0.49])
def test_end_singularities_weaker_than_inverse_square_root(q):
    # the same three routes for q < 1/2 reach their tolerances
    for f, lo, hi, anchor in ((lambda t: t ** -q, 1.0, 2.0, 0.0),
                              (lambda t: (1.0 - t) ** -q, 0.0, 0.5, None)):
        got = AnchoredAntiderivative(f, lo, hi, anchor=anchor, tol=1e-12)(1.0)
        assert abs(got - 1.0 / (1.0 - q)) <= 1e-12
    m = Momentum(eval=lambda x: math.sqrt(1.0 - (1.0 - x) ** (2.0 * q)),
                 deriv=lambda x: 0.0, domain=(0.1, 1.0))
    assert abs(arclength(m, 0.2, 1.0) - 0.8 ** (1.0 - q) / (1.0 - q)) <= 5e-11


def test_strip_logarithmic_end():
    # int_0^x ln t dt = x ln x - x: not a power law at the anchor 0
    A = AnchoredAntiderivative(math.log, 1.0, 2.0, anchor=0.0, tol=1e-12)
    for x in (1.0, 2.0):
        assert abs(A(x) - (x * math.log(x) - x)) <= 1e-12


# --- Brent's method against SciPy's brentq ---------------------------------

_ROOT_FUNCTIONS = [
    lambda x, r: (x - r) * (1.0 + (x - r) ** 2),
    lambda x, r: math.tanh(20.0 * (x - r)),
    lambda x, r: math.exp(x) - math.exp(r),
    lambda x, r: (x - r) ** 3,
    lambda x, r: math.cos(x) - math.cos(r),
    lambda x, r: math.copysign(abs(x - r) ** 0.3, x - r),
]


def test_bracketed_root_matches_brentq():
    from scipy.optimize import brentq

    rng = np.random.default_rng(11)
    for _ in range(600):
        fn = _ROOT_FUNCTIONS[int(rng.integers(len(_ROOT_FUNCTIONS)))]
        lo, r, hi = np.sort(rng.uniform(0.1, 3.0, 3)).tolist()
        xtol = float(rng.choice([4 * np.finfo(float).eps, 1e-12, 1e-10, 1e-6]))
        g = lambda x, fn=fn, r=r: fn(x, r)  # noqa: E731
        try:
            want = brentq(g, lo, hi, xtol=xtol, rtol=4 * np.finfo(float).eps)
        except RuntimeError:  # no convergence in 100 iterations
            with pytest.raises(RootBracketFailure):
                bracketed_root(g, lo, hi, xtol=xtol)
            continue
        assert bracketed_root(g, lo, hi, xtol=xtol).hex() == want.hex()


def test_bracketed_root_typed_failures():
    with pytest.raises(RootBracketFailure):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RootBracketFailure):
        bracketed_root(lambda x: x if x < 0.5 else math.nan, -1.0, 1.0)
    assert bracketed_root(lambda x: x, 0.0, 1.0) == 0.0


# --- the array protocol ---------------------------------------------------

def _recording(fn):
    """fn, recording the type of every argument it receives."""
    seen = []

    def f(x):
        seen.append(type(x))
        return fn(x)
    return f, seen


@pytest.mark.parametrize("fn", [
    math.sin,
    lambda x: math.exp(-x) if x > 0 else 1.0,
    lambda x: 1.0,
], ids=["math.sin", "branch on x > 0", "constant"])
def test_array_callable_falls_back_to_per_point_calls(fn):
    f, seen = _recording(fn)
    g = array_callable(f, 0.0, 2.0)
    xs = np.linspace(-0.5, 2.5, 101)
    del seen[:]
    got = g(xs)
    assert got.shape == xs.shape and got.dtype == float
    assert got.tolist() == [fn(x) for x in xs.tolist()]
    assert set(seen) == {float}
    assert g(0.7) == fn(0.7)


def test_array_callable_falls_back_for_a_counter_keyed_by_argument():
    calls = Counter()

    def f(x):
        calls[x] += 1
        return x * x

    g = array_callable(f, 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 9)
    calls.clear()
    assert g(xs).tolist() == [x * x for x in xs.tolist()]
    assert sorted(calls) == xs.tolist() and set(calls.values()) == {1}


def test_constant_integrand_broadcasts():
    g = array_callable(lambda x: 1.0, 0.0, 2.0)
    np.testing.assert_array_equal(g(np.zeros((3, 4))), np.ones((3, 4)))
    assert abs(integrate(lambda x: 1.0, 0.0, 2.0) - 2.0) <= 1e-15


@pytest.mark.parametrize("ulps, vectorized", [(0, True), (1, True), (4, True), (8, False)])
def test_array_callable_takes_arrays_within_four_ulps(ulps, vectorized):
    def fn(x):
        if isinstance(x, np.ndarray):
            return (1.0 + x) + ulps * np.spacing(1.0 + x)
        return 1.0 + x

    f, seen = _recording(fn)
    g = array_callable(f, 0.0, 1.0)
    del seen[:]
    g(np.linspace(0.0, 1.0, 5))
    assert (seen == [np.ndarray]) is vectorized


def test_marked_callables_pass_through_unprobed():
    f = takes_arrays(lambda x: x + 1.0)
    assert array_callable(f, 0.0, 1.0) is f


def test_array_call_fault_surfaces_the_per_point_error():
    g = array_callable(lambda x: 1.0 / (x - 1.0), 0.0, 2.0)
    np.testing.assert_array_equal(g(np.array([0.0, 2.0])), [-1.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        g(np.array([0.5, 1.0]))


def test_graph_height_reads_the_band():
    # every sample's height is the quadrature route's height to it: the
    # catenoid from its waist, the sphere up to its turn and the unduloid
    # between its turns, each singular at one or both ends
    unduloid = momentum_from_mean(lambda x: 1.0, 0.12,
                                  (0.13944487245360107, 0.860555127546399), anchor=0.0)
    for m, x0, x1 in ((catenoid_momentum(), 1.0, 4.0), (sphere_momentum(), 0.0, 1.0),
                      (unduloid, *unduloid.domain)):
        xs, zs = graph_height(m, x0, x1, n=65)
        assert xs[0] == x0 and xs[-1] == x1 and zs[0] == 0.0
        want = [height_displacement(m, x0, x) for x in xs[1:].tolist()]
        assert np.max(np.abs(zs[1:] - want)) <= 2e-12
    # and the catenoid's height is its closed form to rounding
    for n in (65, 257):
        xs, zs = graph_height(catenoid_momentum(), 1.0, 4.0, n=n)
        assert np.max(np.abs(zs + np.arccosh(xs))) <= 1e-13
