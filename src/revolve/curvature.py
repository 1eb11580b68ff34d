"""Curvatures of a rotational surface straight from its momentum.

In the arclength/angle chart of a surface of revolution the two principal
directions run along meridians and parallels, and both principal curvatures
are functions of the distance x to the axis alone:

    k_m(x) = K'(x)        (meridian)
    k_p(x) = K(x) / x     (parallel)
    2 H    = k_m + k_p
    K_G    = k_m * k_p

The module also carries the second-order couplings between mean and Gauss
prescriptions: the antiderivative constant Gamma of int(x*H) fixes the Gauss
construction constant c = 2*Gamma, and the residual of the compatibility
identity (int x*H)^2 = (x^2/2) * int(x*K_G) measures whether a given (H, K_G)
pair can come from one surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AxisSingularity, ExponentForbidden, NonPositiveMu, ParamOutOfRange
from .momentum import _AXIS_REL, Momentum, _axis_eps, _moment
from .quadrature import array_callable

__all__ = [
    "CurvatureSample",
    "MeanInverseBranch",
    "principal_curvatures",
    "mean_curvature",
    "gauss_curvature",
    "gauss_from_mean",
    "gauss_monomial",
    "constraint_residual",
    "weingarten_residual",
    "classify_mean_inverse",
]


class CurvatureSample(NamedTuple):
    """Both principal curvatures at one parallel, with the derived H and K_G.

    A named tuple: fields read by name or position, and a row compares
    equal to the plain tuple (x, k_m, k_p, H, K_G)."""

    x: float
    k_m: float
    k_p: float
    H: float
    K_G: float

    @classmethod
    def from_principal(cls, x: float, k_m: float, k_p: float) -> "CurvatureSample":
        return cls(x=x, k_m=k_m, k_p=k_p, H=0.5 * (k_m + k_p), K_G=k_m * k_p)


@dataclass(frozen=True)
class MeanInverseBranch:
    """Classification tag for surfaces with H = mu / x."""

    kind: str            # 'Parabolic' | 'Trigonometric' | 'Hyperbolic'
    angle: float | None  # theta = arcsin(2 mu), delta = arccosh(2 mu), or None


def principal_curvatures(m: Momentum, x):
    """(k_m, k_p) = (K'(x), K(x)/x); the axis value is the umbilic limit.

    At x = 0 the parallel curvature has the finite limit K'(0) only when
    K(0) = 0 (the profile meets the axis orthogonally); anything else raises
    AxisSingularity. x may be a float or an array: an array takes one array
    call of K and of K' (through the array protocol), and its samples on the
    axis take the float path, AxisSingularity included.
    """
    lo, hi = m.domain    # momentum._axis_eps, inline: this runs once a point
    axis_eps = _AXIS_REL * max(1.0, hi - lo) if lo <= 0.0 <= hi else 0.0
    if isinstance(x, np.ndarray):
        k_m = array_callable(m.deriv, *m.domain)(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            k_p = array_callable(m.eval, *m.domain)(x) / x
        on_axis = np.flatnonzero(np.abs(x) < axis_eps)
        if on_axis.size:
            k_m, k_p = np.array(k_m, dtype=float), np.array(k_p, dtype=float)
            for i in on_axis.tolist():
                k_m.flat[i], k_p.flat[i] = principal_curvatures(m, float(x.flat[i]))
        return k_m, k_p
    if abs(x) < axis_eps:
        k0 = m.eval(x)
        if abs(k0) > 1e-9:
            raise AxisSingularity(
                f"K({x!r}) = {k0:.6g} != 0: curvature along parallels diverges on the axis")
        d0 = m.deriv(x)
        return d0, d0
    return m.deriv(x), m.eval(x) / x


def mean_curvature(m: Momentum, x):
    """H at a float or, elementwise, an array of x."""
    k_m, k_p = principal_curvatures(m, x)
    return 0.5 * (k_m + k_p)


def gauss_curvature(m: Momentum, x):
    """K_G at a float or, elementwise, an array of x."""
    k_m, k_p = principal_curvatures(m, x)
    return k_m * k_p


def gauss_from_mean(H: Callable[[float], float], gamma: float, x,
                    domain: Sequence[float], anchor: float | None = None,
                    tol: float = 1e-12):
    """Gauss curvature induced by a mean-curvature prescription.

    With A(x) = int_anchor^x t*H(t) dt + gamma, eliminating K between the two
    curvature relations gives K_G = (2/x) * d/dx (A^2 / x^2), expanded
    analytically (no numerical differentiation):

        K_G = 4*A*H/x^2 - 4*A^2/x^4

    On the axis (the rule of :func:`principal_curvatures`) K_G is the
    umbilic limit H^2 where A vanishes, and AxisSingularity where it does not.
    """
    lo, hi = domain[0], domain[1]
    H, A = _moment(H, lo, hi, anchor, tol)
    xs = np.asarray(x, dtype=float)
    Av = np.asarray(A(xs), dtype=float) + gamma
    Hv = H(np.atleast_1d(xs)).reshape(xs.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # the axis is set below
        out = np.asarray(4.0 * Av * Hv / xs**2 - 4.0 * Av**2 / xs**4)
    on = np.abs(xs) < _axis_eps(lo, hi, max(1.0, hi - lo))
    if np.any(on):
        _axis_vanishes(Av[on])
        out[on] = Hv[on] ** 2
    return float(out) if np.isscalar(x) else out


def gauss_monomial(mu: float, n: float, gamma: float, x):
    """Closed-form Gauss curvature for the monomial family H = mu * x^n.

        K_G = 4(n+1)mu^2/(n+2)^2 * x^(2n) + 4 n gamma mu/(n+2) * x^(n-2)
              - 4 gamma^2 / x^4

    The exponent n = -2 is excluded (its antiderivative is not a monomial).
    On the axis K_G is the finite limit of the first term where
    int x*H + gamma = mu x^(n+2) / (n+2) + gamma vanishes there; anything
    else raises AxisSingularity.
    """
    if abs(n + 2.0) < 1e-12:
        raise ExponentForbidden("n = -2 is outside the monomial family")
    xs = np.asarray(x, dtype=float)
    lead = 4.0 * (n + 1.0) * mu**2 / (n + 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):  # the axis is set below
        out = np.asarray(lead * xs ** (2.0 * n)
                         + 4.0 * n * gamma * mu / (n + 2.0) * xs ** (n - 2.0)
                         - 4.0 * gamma**2 / xs**4)
    on = np.abs(xs) < _AXIS_REL
    if np.any(on):
        _axis_vanishes(gamma if n > -2.0 or mu == 0.0 else math.inf)  # its value at 0
        if not (lead == 0.0 or n >= 0.0):
            raise AxisSingularity(f"K_G = {lead:.6g} x^{2.0 * n:.6g} diverges on the axis")
        out[on] = lead if n == 0.0 else 0.0
    return float(out) if np.isscalar(x) else out


def _axis_vanishes(a) -> None:
    """AxisSingularity unless every value a of int x*H + gamma on the axis
    vanishes, to the 1e-9 that :func:`principal_curvatures` asks of K."""
    bad = [v for v in np.ravel(a).tolist() if not abs(v) <= 1e-9]
    if bad:
        raise AxisSingularity(f"int x*H + gamma = {bad[0]:.6g} != 0 on the axis: "
                              "K = 2 (int x*H + gamma) / x diverges there")


def constraint_residual(H: Callable[[float], float], G: Callable[[float], float],
                        gamma_H: float, c_G: float, x,
                        domain: Sequence[float], anchor: float | None = None,
                        tol: float = 1e-12):
    """Residual of the mean/Gauss compatibility identity.

    A pair (H, K_G) belongs to a common surface exactly when

        (int x*H + gamma_H)^2 - (x^2/2) * (int x*K_G + c_G) = 0

    for compatible antiderivative constants. Both integrals are anchored at
    the same point (domain left end unless ``anchor`` says otherwise).
    """
    AH, AG = (_moment(F, domain[0], domain[1], anchor, tol)[1] for F in (H, G))
    xs = np.asarray(x, dtype=float)
    lhs = (np.asarray(AH(xs), dtype=float) + gamma_H) ** 2
    rhs = 0.5 * xs**2 * (np.asarray(AG(xs), dtype=float) + c_G)
    out = lhs - rhs
    return float(out) if np.isscalar(x) else out


def weingarten_residual(m: Momentum, q: float, x):
    """k_m - q * k_p; identically zero on the linear Weingarten families."""
    k_m, k_p = principal_curvatures(m, x)
    return k_m - q * k_p


def classify_mean_inverse(mu: float) -> MeanInverseBranch:
    """Branch of the H = mu/x family: parabolic, trigonometric, or hyperbolic.

    mu = 1/2 is the parabolic borderline; below it the profile closes with a
    trigonometric angle theta = arcsin(2 mu), above it with a hyperbolic
    angle delta = arccosh(2 mu), log(4 mu) where 2 mu overflows. Requires a
    finite mu > 0.
    """
    if not mu > 0.0:
        raise NonPositiveMu(f"mu must be positive, got {mu!r}")
    if mu == math.inf:
        raise ParamOutOfRange("mu must be finite, got inf")
    if mu == 0.5:
        return MeanInverseBranch("Parabolic", None)
    if mu < 0.5:
        return MeanInverseBranch("Trigonometric", math.asin(2.0 * mu))
    if mu > 0.5 * np.finfo(float).max:  # 2 mu overflows
        return MeanInverseBranch("Hyperbolic", math.log(4.0) + math.log(mu))
    return MeanInverseBranch("Hyperbolic", math.acosh(2.0 * mu))
