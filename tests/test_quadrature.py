import math
from collections import Counter

import numpy as np
import pytest

from revolve.errors import QuadratureFailure
from revolve.quadrature import (AnchoredAntiderivative, integrate,
                                sqrt_endpoint_integral)

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
    calls = Counter()

    def f(t):
        calls[t] += 1
        return math.exp(math.sin(5.0 * t)) * t

    A = AnchoredAntiderivative(f, 0.0, 2.0, tol=1e-12)
    knots = A._spline.x.tolist()
    assert len(knots) > 1000
    assert all(calls[x] == 1 for x in knots)
