"""Quadrature and differentiation utilities.

Two engines live here:

* :func:`tanh_sinh` - double-exponential quadrature on a finite interval.
  Nodes cluster double-exponentially at both endpoints, so integrable
  endpoint singularities converge at the same geometric rate as smooth
  integrands.
* :class:`AnchoredAntiderivative` - a cumulative adaptive Gauss-Kronrod
  integral A(x) = int_anchor^x f(t) dt, cached as a piecewise-cubic Hermite
  interpolant whose slopes are the exact integrand values.

Momenta evaluate their antiderivative one float at a time (flows, scans,
root finding, nested quadrature), so a float inside the cached interval
takes a scalar path: a bisection on the knots, kept as a Python list, and
the spline's own coefficients summed in SciPy's PPoly order. It returns the
same bits as the SciPy spline at about a seventh of the cost. Arrays and
points outside the cache take the SciPy spline and direct quadrature.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from typing import Callable

import numpy as np
from scipy import integrate as _sp_integrate
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from .errors import EvaluationDomainError, QuadratureFailure, RootBracketFailure

__all__ = [
    "tanh_sinh",
    "sqrt_endpoint_integral",
    "AnchoredAntiderivative",
    "numeric_derivative",
    "bracketed_root",
    "gk_quad",
    "gk_quad_raw",
]

_EPS = float(np.finfo(float).eps)

# Beyond this abscissa the node weight underflows and nodes collide with the
# endpoints in double precision.
_T_MAX = 6.115


def _level_sum(f: Callable[[float], float], a: float, b: float, half: float,
               h: float, only_odd: bool) -> float:
    """Sum weight*f over the tanh-sinh nodes t = k*h (k > 0, both signs).

    With ``only_odd`` only odd k are visited, which is what level doubling
    needs to reuse previous levels.
    """
    total = 0.0
    k = 1
    step = 2 if only_odd else 1
    while k * h <= _T_MAX:
        t = k * h
        w = 0.5 * math.pi * math.sinh(t)
        cw = math.cosh(w)
        weight = 0.5 * math.pi * math.cosh(t) / (cw * cw)
        if weight < 1e-300:
            break
        # distance of the +t node to b (and of the -t node to a), in units
        # of the half-width; computed in a cancellation-free form.
        dm = math.exp(-w) / cw
        d = half * dm
        if d <= 0.0:
            break
        x_hi = b - d
        x_lo = a + d
        if x_hi >= b or x_lo <= a:
            break
        fh = f(x_hi)
        fl = f(x_lo)
        if not (math.isfinite(fh) and math.isfinite(fl)):
            raise QuadratureFailure(
                f"integrand not finite near x={x_hi if not math.isfinite(fh) else x_lo!r}")
        total += weight * (fh + fl)
        k += step
    return total


def tanh_sinh(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-11, max_level: int = 11) -> float:
    """Integrate f over [a, b] with adaptive double-exponential quadrature.

    Absolute-tolerance driven; raises QuadratureFailure if the level-doubling
    scheme does not settle. The endpoints themselves are never evaluated.
    """
    if a == b:
        return 0.0
    if b < a:
        return -tanh_sinh(f, b, a, tol=tol, max_level=max_level)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    f0 = f(mid)
    if not math.isfinite(f0):
        raise QuadratureFailure(f"integrand not finite at midpoint x={mid!r}")

    h = 1.0
    raw = 0.5 * math.pi * f0 + _level_sum(f, a, b, half, h, only_odd=False)
    value = raw * h * half
    for _ in range(max_level):
        h *= 0.5
        raw += _level_sum(f, a, b, half, h, only_odd=True)
        new_value = raw * h * half
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, 1e-15 * abs(value)):
            return value
    raise QuadratureFailure(
        f"tanh-sinh did not converge on [{a!r}, {b!r}] (last step changed by {err:.3e})")


def sqrt_endpoint_integral(f: Callable[[float], float], a: float, b: float,
                           singular_lo: bool, singular_hi: bool,
                           tol: float = 1e-11) -> float:
    """Integrate f over [a, b] where f may blow up like an inverse square root
    at one or both endpoints (a simple zero under the root).

    Singular sides are regularized by the substitution x = a + v**2 (resp.
    x = b - v**2), after which the integrand is smooth and tanh-sinh reaches
    full double precision. The substituted integrand clamps v away from the
    region where a + v*v rounds back onto the endpoint.
    """
    if a == b:
        return 0.0
    if b < a:
        return -sqrt_endpoint_integral(f, b, a, singular_hi, singular_lo, tol=tol)
    if singular_lo and singular_hi:
        mid = 0.5 * (a + b)
        return (sqrt_endpoint_integral(f, a, mid, True, False, tol=0.5 * tol)
                + sqrt_endpoint_integral(f, mid, b, False, True, tol=0.5 * tol))
    if not (singular_lo or singular_hi):
        return tanh_sinh(f, a, b, tol=tol)

    width = b - a
    scale = max(abs(a), abs(b), width)
    # Below v_floor the cancellation noise of the integrand (typically a
    # 1 - K(x)^2 difference) swamps its value; the clamped stretch carries
    # O(v_floor^3) mass, far below any supported tolerance.
    v_floor = 1e-5 * math.sqrt(scale)
    v_top = math.sqrt(width)

    if singular_lo:
        def g(v: float) -> float:
            v = max(v, v_floor)
            return 2.0 * v * f(a + v * v)
    else:
        def g(v: float) -> float:
            v = max(v, v_floor)
            return 2.0 * v * f(b - v * v)

    return tanh_sinh(g, 0.0, v_top, tol=tol)


def gk_quad(f: Callable[[float], float], a: float, b: float,
            tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod integral with a hard error check.

    Thin wrapper over QUADPACK that turns poor error estimates into a typed
    QuadratureFailure instead of a console warning. Supports infinite limits
    and integrable endpoint singularities.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gk_quad_raw(f, a, b, tol)


def gk_quad_raw(f: Callable[[float], float], a: float, b: float,
                tol: float = 1e-12) -> float:
    """:func:`gk_quad` without its warnings filter.

    For loops over many panels, which enter one filter around the whole loop.
    """
    val, abserr = _sp_integrate.quad(f, a, b, epsabs=tol, epsrel=1e-13, limit=200)
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over [{a!r}, {b!r}] is not finite")
    if abserr > max(100.0 * tol, 1e-13 * abs(val), 1e-13):
        raise QuadratureFailure(
            f"Gauss-Kronrod error estimate {abserr:.3e} too large on [{a!r}, {b!r}]")
    return val


class AnchoredAntiderivative:
    """A(x) = int_anchor^x f(t) dt over [lo, hi], cached for fast evaluation.

    The anchor defaults to ``lo`` but may lie outside the interval (0 below a
    positive domain, or -inf) as long as f is integrable on [anchor, lo].
    Panel integrals use adaptive Gauss-Kronrod; the accumulated values and the
    exact slopes f(x_i) feed a cubic Hermite interpolant that is refined until
    midpoint interpolation errors drop below ``tol``.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 anchor: float | None = None, tol: float = 1e-12,
                 initial_knots: int = 17, max_knots: int = 4096):
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"bad interval [{lo!r}, {hi!r}]")
        self._f = f
        self.lo = float(lo)
        self.hi = float(hi)
        self.anchor = self.lo if anchor is None else float(anchor)
        self.tol = float(tol)

        width = self.hi - self.lo
        if width == 0.0:
            self._spline = None
            self._base = 0.0 if self.anchor == self.lo else gk_quad(f, self.anchor, self.lo, tol)
            self._inset_lo = self._inset_hi = self.lo
            return

        # Keep spline knots away from endpoints where f itself is singular
        # (but integrable); the short end strips are integrated directly.
        inset = 1e-8 * width
        self._inset_lo = self.lo
        self._inset_hi = self.hi
        if not self._defined_at(self.lo):
            self._inset_lo = self.lo + inset
        if not self._defined_at(self.hi):
            self._inset_hi = self.hi - inset

        # One warnings filter for the whole build: entering one per panel
        # costs as much as a short panel integral.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._base = 0.0
            if self.anchor != self._inset_lo:
                self._base = gk_quad_raw(f, self.anchor, self._inset_lo, tol)

            xs = list(np.linspace(self._inset_lo, self._inset_hi, initial_knots))
            panel_vals = [gk_quad_raw(f, xs[i], xs[i + 1], tol * 0.1)
                          for i in range(len(xs) - 1)]

            # Refine panels until the Hermite interpolant reproduces midpoint
            # integrals to tolerance.
            for _round in range(40):
                fs = [self._safe_f(x) for x in xs]
                if any(not math.isfinite(v) for v in fs):
                    raise QuadratureFailure("integrand not finite at an interior knot")
                splits = []
                for i in range(len(xs) - 1):
                    x0, x1 = xs[i], xs[i + 1]
                    if x1 - x0 <= 64 * _EPS * max(1.0, abs(x0)):
                        continue
                    m = 0.5 * (x0 + x1)
                    left = gk_quad_raw(f, x0, m, tol * 0.1)
                    h = x1 - x0
                    # cubic Hermite at the midpoint of panel i
                    interp = 0.5 * panel_vals[i] + h * (fs[i] - fs[i + 1]) / 8.0
                    if abs(interp - left) > self.tol:
                        splits.append((i, m, left))
                if not splits or len(xs) + len(splits) > max_knots:
                    break
                for i, m, left in reversed(splits):
                    right = panel_vals[i] - left
                    xs.insert(i + 1, m)
                    panel_vals[i] = left
                    panel_vals.insert(i + 1, right)
            else:  # pragma: no cover - loop always breaks in practice
                raise QuadratureFailure("antiderivative cache failed to refine")

        # The last round left xs unchanged, so its fs are the knot slopes.
        acc = np.concatenate(([0.0], np.cumsum(panel_vals)))
        self._spline = CubicHermiteSpline(np.asarray(xs), self._base + acc, np.asarray(fs))
        # Per knot interval: its left knot and the spline's four coefficients,
        # highest power first, for the scalar path of __call__.
        self._lefts = self._spline.x[:-1].tolist()
        self._pieces = list(zip(self._lefts, *self._spline.c.tolist()))

    def _safe_f(self, x: float) -> float:
        try:
            return float(self._f(x))
        except (ZeroDivisionError, ValueError, OverflowError):
            return math.nan

    def _defined_at(self, x: float) -> bool:
        """Endpoint probe: is f finite at x? A typed domain error means no."""
        try:
            return math.isfinite(self._safe_f(x))
        except EvaluationDomainError:
            return False

    def __call__(self, x):
        if self._spline is None:
            return self._base if np.isscalar(x) else np.full(np.shape(x), self._base)
        if isinstance(x, float) and self._inset_lo <= x <= self._inset_hi:
            # SciPy's PPoly evaluation, operation for operation: the interval
            # is knots[i] <= x < knots[i + 1], with the last knot in the last
            # interval, and the powers of s are accumulated from the lowest.
            # float(x) makes a numpy scalar return a Python float, as before.
            xi, c0, c1, c2, c3 = self._pieces[bisect_right(self._lefts, x) - 1]
            s = float(x) - xi
            res = (0.0 + c3) + c2 * s
            z = s * s
            res = res + c1 * z
            z = z * s
            return res + c0 * z
        xarr = np.asarray(x, dtype=float)
        inside = (xarr >= self._inset_lo) & (xarr <= self._inset_hi)
        if np.all(inside):
            out = self._spline(xarr)
            return float(out) if np.isscalar(x) else out
        out = np.empty(xarr.shape)
        out[inside] = self._spline(xarr[inside])
        for idx in np.ndindex(xarr.shape):
            if not inside[idx]:
                xv = float(xarr[idx])
                if xv < self._inset_lo:
                    out[idx] = self._base + gk_quad(self._f, self._inset_lo, xv, self.tol)
                else:
                    out[idx] = float(self._spline(self._inset_hi)) + gk_quad(
                        self._f, self._inset_hi, xv, self.tol)
        return float(out) if np.isscalar(x) else out


_FD_REL_STEP = _EPS ** 0.2  # ~7.4e-4, optimal for 4th order


def numeric_derivative(f: Callable[[float], float], x: float,
                       lo: float = -math.inf, hi: float = math.inf) -> float:
    """Fourth-order finite-difference derivative of f at x.

    The five-point stencil is shifted to stay inside [lo, hi] near endpoints.
    """
    h = _FD_REL_STEP * max(abs(x), 0.01 * (min(hi, x + 1.0) - max(lo, x - 1.0)), 1e-6)
    if hi - lo < 8 * h:
        h = (hi - lo) / 8.0
    if x - 2 * h >= lo and x + 2 * h <= hi:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    sign = 1.0 if x - lo <= hi - x else -1.0
    # one-sided 4th-order stencil pointing into the interval
    c = (-25.0, 48.0, -36.0, 16.0, -3.0)
    return sum(ci * f(x + sign * i * h) for i, ci in enumerate(c)) / (12 * h * sign)


def bracketed_root(g: Callable[[float], float], a: float, b: float,
                   xtol: float = 1e-12) -> float:
    """Root of g on [a, b] via Brent's method; typed error when unbracketed."""
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        raise RootBracketFailure(
            f"no sign change on [{a!r}, {b!r}] (g(a)={ga:.3e}, g(b)={gb:.3e})")
    return float(brentq(g, a, b, xtol=xtol, rtol=4 * np.finfo(float).eps))
