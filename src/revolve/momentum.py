"""Momentum construction from prescribed curvature data.

The momentum of a rotational surface's generating curve is the z-component
K(x) of its unit tangent, expressed as a function of the distance x to the
rotation axis. It determines the surface up to a vertical translation. The
four constructors here invert the four pointwise curvature prescriptions:

* curvature along parallels  k_p(x) = K(x)/x      ->  K = x * p(x)
* curvature along meridians  k_m(x) = K'(x)       ->  K = int k + c
* mean curvature             2H = K' + K/x        ->  x*K = 2*int x*H + c
* Gauss curvature            K_G = K*K'/x         ->  K^2 = 2*int x*K_G + c

Antiderivatives are anchored at the left end of the declared domain unless an
explicit ``anchor`` is given; the anchor may sit below the domain (0, or even
-inf) whenever the integrand is integrable there, which is how the classical
one-parameter families keep their textbook constants.

The constructors take their prescription through the quadrature layer's
array protocol (``array_callable``), so their integrands and scans make one
call per array, and the momenta they return take a float or a NumPy array:
``eval`` and ``deriv`` of an array are the arrays of their per-point values
(``deriv`` of the mean and Gauss kinds by a per-point loop).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainViolation, NegativeRadicand, ParamOutOfRange,
                     SingularAxis)
from .quadrature import (AnchoredAntiderivative, _pointwise, array_callable,
                         bracketed_root, numeric_derivative, takes_arrays)

__all__ = [
    "Momentum",
    "momentum_from_kp",
    "momentum_from_km",
    "momentum_from_mean",
    "momentum_from_gauss",
    "admissible_intervals",
]

_AXIS_REL = 1e-13  # |x| below this fraction of the domain width counts as on-axis
_N_SCAN = 4096  # panels of the admissible-interval scan


@dataclass(frozen=True)
class Momentum:
    """K(x) with its derivative and the closed x-interval it is defined on."""

    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ParamOutOfRange(f"bad momentum domain {self.domain!r}")

    @property
    def width(self) -> float:
        return self.domain[1] - self.domain[0]

    def gap(self, x: float) -> float:
        """1 - K(x)^2: zero at a turning point, negative where |K| > 1."""
        k = self.eval(x)
        return 1.0 - k * k

    def sample(self, xs: Sequence[float]) -> np.ndarray:
        return array_callable(self.eval, *self.domain)(np.asarray(xs, dtype=float).ravel())


def _as_interval(domain: Sequence[float]) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ParamOutOfRange(f"domain must be a finite interval, got {domain!r}")
    return lo, hi


def _constant(c: float) -> float:
    if not math.isfinite(c):
        raise ParamOutOfRange(f"the integration constant must be finite, got {c!r}")
    return float(c)


def momentum_from_kp(p: Callable[[float], float], domain: Sequence[float],
                     p_deriv: Callable[[float], float] | None = None) -> Momentum:
    """Momentum with prescribed curvature along parallels: K(x) = x * p(x).

    This prescription is rigid - it admits no free constant. Raises
    DomainViolation if |x p(x)| exceeds 1 anywhere on the domain.
    """
    lo, hi = _as_interval(domain)
    p_array = array_callable(p, lo, hi)
    xs = np.linspace(lo, hi, 2049)
    with np.errstate(all="ignore"):
        ks = np.abs(xs * p_array(xs))
    over = ks > 1.0 + 1e-12
    if np.any(over):
        i = int(np.argmax(over))
        raise DomainViolation(
            f"|x*p(x)| = {ks[i]:.6g} > 1 at x = {xs[i]:.6g}; no unit tangent exists there")

    @takes_arrays
    def eval_(x):
        return x * p_array(x)

    if p_deriv is not None:
        p_deriv = array_callable(p_deriv, lo, hi)

        @takes_arrays
        def deriv(x):
            return p_array(x) + x * p_deriv(x)
    else:
        @takes_arrays
        def deriv(x):
            if isinstance(x, np.ndarray):
                return _pointwise(deriv, x)
            return p(x) + x * numeric_derivative(p, x, lo, hi)

    return Momentum(eval_, deriv, (lo, hi))


def momentum_from_km(k: Callable[[float], float], c: float,
                     domain: Sequence[float], anchor: float | None = None,
                     tol: float = 1e-12) -> Momentum:
    """Momentum with prescribed curvature along meridians: K = c + int k dx.

    One antiderivative constant c; K(anchor) = c.
    """
    lo, hi = _as_interval(domain)
    c = _constant(c)
    k = array_callable(k, lo, hi)
    A = AnchoredAntiderivative(k, lo, hi, anchor=anchor, tol=tol)

    @takes_arrays
    def eval_(x):
        return c + A(x)

    return Momentum(eval_, k, (lo, hi))


def momentum_from_mean(H: Callable[[float], float], c: float,
                       domain: Sequence[float], anchor: float | None = None,
                       tol: float = 1e-12) -> Momentum:
    """Momentum with prescribed mean curvature: K(x) = (2*int x*H dx + c) / x.

    The equation 2H = K' + K/x integrates to x*K = 2*int(x H) + c. At x = 0
    the quotient has a finite limit only when the numerator vanishes there;
    otherwise the construction is singular on the axis (SingularAxis).
    """
    lo, hi = _as_interval(domain)
    c = _constant(c)
    H_array = array_callable(H, lo, hi)

    @takes_arrays
    def f(t):
        return t * H_array(t)

    A = AnchoredAntiderivative(f, lo, hi, anchor=anchor, tol=tol)
    axis_eps = _AXIS_REL * (hi - lo)

    if lo <= 0.0 <= hi:
        r0 = 2.0 * float(A(0.0)) + c
        if abs(r0) > 1e-12 * max(1.0, abs(c)):
            raise SingularAxis(
                f"x*K(x) -> {r0:.6g} != 0 at the axis; momentum unbounded at x = 0")
        f0 = f(0.0)
        if not math.isfinite(f0):
            raise SingularAxis("x*H(x) has no finite limit at the axis")

    @takes_arrays
    def eval_(x):
        if isinstance(x, np.ndarray):
            on_axis = np.abs(x) < axis_eps
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (2.0 * A(x) + c) / x
            if np.any(on_axis):
                out[on_axis] = 2.0 * f(0.0)
            return out
        if abs(x) < axis_eps:
            return 2.0 * f(0.0)
        return (2.0 * float(A(x)) + c) / x

    @takes_arrays
    def deriv(x):
        # K' = 2H - K/x, with the symmetric limit K'(0) = 0 when K(0) exists.
        if isinstance(x, np.ndarray):
            return _pointwise(deriv, x)
        if abs(x) < axis_eps:
            return 0.0
        return 2.0 * H(x) - eval_(x) / x

    return Momentum(eval_, deriv, (lo, hi))


def momentum_from_gauss(G: Callable[[float], float], c: float, sigma: float,
                        domain: Sequence[float], anchor: float | None = None,
                        tol: float = 1e-12) -> Momentum:
    """Momentum with prescribed Gauss curvature: K = sigma*sqrt(2*int x*G dx + c).

    sigma in {+1, -1} picks the sign branch. Raises NegativeRadicand (with an
    offending open interval) if the radicand is negative on the domain.
    """
    lo, hi = _as_interval(domain)
    if sigma not in (1.0, -1.0, 1, -1):
        raise ParamOutOfRange(f"sigma must be +1 or -1, got {sigma!r}")
    sigma = float(sigma)
    c = _constant(c)
    G_array = array_callable(G, lo, hi)

    @takes_arrays
    def f(t):
        return t * G_array(t)

    A = AnchoredAntiderivative(f, lo, hi, anchor=anchor, tol=tol)

    def radicand(x: float) -> float:
        return 2.0 * float(A(x)) + c

    xs = np.linspace(lo, hi, 2049)
    vals = 2.0 * np.asarray(A(xs), dtype=float) + c
    # a radicand that merely touches zero must survive quadrature wiggle
    bad = vals < -max(1e-12, 10.0 * tol)
    if np.any(bad):
        i0 = int(np.argmax(bad))
        i1 = len(bad) - 1 - int(np.argmax(bad[::-1]))
        lo_edge = xs[i0] if i0 == 0 else bracketed_root(radicand, xs[i0 - 1], xs[i0])
        hi_edge = xs[i1] if i1 == len(xs) - 1 else bracketed_root(radicand, xs[i1], xs[i1 + 1])
        raise NegativeRadicand(
            f"2*int(x*K_G) + c < 0 on ({lo_edge:.6g}, {hi_edge:.6g}); "
            "no momentum with this constant", interval=(float(lo_edge), float(hi_edge)))

    @takes_arrays
    def eval_(x):
        if isinstance(x, np.ndarray):
            return sigma * np.sqrt(np.maximum(2.0 * A(x) + c, 0.0))
        return sigma * math.sqrt(max(radicand(x), 0.0))

    @takes_arrays
    def deriv(x):
        # K' = x*G/K = sigma * (x*G) / sqrt(radicand); +-inf at the zeros of K.
        if isinstance(x, np.ndarray):
            return _pointwise(deriv, x)
        r = max(radicand(x), 0.0)
        num = sigma * (x * G(x))
        if r == 0.0:
            return math.copysign(math.inf, num) if num != 0.0 else math.nan
        return num / math.sqrt(r)

    return Momentum(eval_, deriv, (lo, hi))


def admissible_intervals(m: Momentum) -> list[tuple[float, float]]:
    """Maximal open sub-intervals of m.domain where K(x)^2 < 1.

    Interval edges interior to the domain are zeros of 1 - K^2 refined to a
    few units in the last place of the domain's ends, since the arclength
    to a turning point changes like the square root of an error in its
    position; edges coinciding with domain endpoints inherit them exactly. The
    scan samples _N_SCAN + 1 equispaced points in one array call, so features
    narrower than the grid may be missed.
    """
    lo, hi = m.domain
    xs = np.linspace(lo, hi, _N_SCAN + 1)
    ks = array_callable(m.eval, lo, hi)(xs)
    with np.errstate(all="ignore"):
        pos = np.concatenate(([False], 1.0 - ks * ks > 0.0, [False]))
    # the runs of pos: run i covers the scan points first[i] .. last[i]
    first, last = np.flatnonzero(np.diff(pos.view(np.int8)) != 0).reshape(-1, 2).T
    last = last - 1
    xtol = 2.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    intervals: list[tuple[float, float]] = []
    for i, j in zip(first.tolist(), last.tolist()):
        left = xs[i] if i == 0 else bracketed_root(m.gap, float(xs[i - 1]), float(xs[i]), xtol)
        right = (xs[j] if j == _N_SCAN
                 else bracketed_root(m.gap, float(xs[j]), float(xs[j + 1]), xtol))
        if right - left > 1e-12 * max(1.0, hi - lo):
            intervals.append((float(left), float(right)))
    return intervals
