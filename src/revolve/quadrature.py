"""Quadrature and differentiation utilities.

One engine integrates every finite range: adaptive bisection into 8-node
Gauss-Legendre panels (:func:`integrate`). On top of it,
:func:`sqrt_endpoint_integral` removes inverse-square-root endpoint blow-ups
by the substitution x = a + v**2, and :class:`AnchoredAntiderivative` caches
A(x) = int_anchor^x f(t) dt as a cubic Hermite interpolant whose slopes are
the exact integrand values. QUADPACK (:func:`gk_quad`) is left only for
ranges that may be infinite or end on a singularity: the strip from the
anchor to the cache, and points outside it.

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
    "integrate",
    "sqrt_endpoint_integral",
    "AnchoredAntiderivative",
    "numeric_derivative",
    "bracketed_root",
    "gk_quad",
]

_EPS = float(np.finfo(float).eps)
_MIN_WIDTH = 64 * _EPS  # narrowest panel, relative to max(1, |x|)
_MAX_PANELS = 4096
_INITIAL_KNOTS = 17  # first knots of an antiderivative cache

# Nodes and weights of the 8-node Gauss-Legendre rule on [-1, 1].
_GL_RULE = list(zip(*(v.tolist() for v in np.polynomial.legendre.leggauss(8))))


def _gl(f: Callable[[float], float], a: float, b: float) -> float:
    """8-node Gauss-Legendre estimate of int_a^b f; a and b are not evaluated."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    total = 0.0
    for t, w in _GL_RULE:
        total += w * f(c + h * t)
    return h * total


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= max(tol, 1e-15 * abs(value))


def _bisect(f: Callable[[float], float], xs: list[float], tol: float,
            knot: Callable[[float], float] | None = None):
    """Adaptive bisection of the panels between the knots xs.

    A panel is accepted when the Gauss-Legendre sum of its halves matches
    its own estimate to max(tol, 1e-15 * |sum|), and contributes that sum.
    With ``knot`` (f at a knot, raising where it cannot be evaluated) the
    cubic Hermite interpolant of the panel's end values and slopes must also
    reproduce the integral over its left half; each knot is evaluated once.
    Every panel estimate comes before the first knot evaluation, so an error
    the integrand raises inside a panel propagates as it is.

    Returns the final knots, f at each of them (nan without ``knot``) and the
    panel integrals, left to right. Raises QuadratureFailure on a non-finite
    sum, on a panel at the width floor that does not converge, and beyond
    _MAX_PANELS panels.
    """
    wholes = [_gl(f, x0, x1) for x0, x1 in zip(xs, xs[1:])]
    fs = [math.nan if knot is None else knot(x) for x in xs]
    todo = list(zip(xs, xs[1:], fs, fs[1:], wholes))[::-1]
    out_x, out_f, out_v = xs[:1], fs[:1], []
    while todo:
        x0, x1, f0, f1, whole = todo.pop()
        m = 0.5 * (x0 + x1)
        left, right = _gl(f, x0, m), _gl(f, m, x1)
        both = left + right
        if not math.isfinite(both):
            raise QuadratureFailure(f"integral over [{x0!r}, {x1!r}] is not finite")
        ok = _close(both, whole, tol)
        if ok and knot is not None:
            # cubic Hermite at the midpoint of the panel
            ok = _close(0.5 * whole + (x1 - x0) * (f0 - f1) / 8.0, left, tol)
        if ok:
            out_x.append(x1)
            out_f.append(f1)
            out_v.append(both)
        elif x1 - x0 <= _MIN_WIDTH * max(1.0, abs(x0)):
            raise QuadratureFailure(
                f"quadrature did not converge on [{x0!r}, {x1!r}] "
                f"(halves differ by {abs(both - whole):.3e})")
        elif len(out_v) + len(todo) + 2 > _MAX_PANELS:
            raise QuadratureFailure(f"quadrature needs more than {_MAX_PANELS} panels")
        else:
            fm = math.nan if knot is None else knot(m)
            todo += [(m, x1, fm, f1, right), (x0, m, f0, fm, left)]
    return out_x, out_f, out_v


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-11) -> float:
    """int_a^b f by adaptive bisection into 8-node Gauss-Legendre panels.

    A panel is accepted when its halves sum to its own estimate within
    max(tol, 1e-15 * |sum|). Raises QuadratureFailure on a non-finite sum,
    on a panel at the width floor that does not converge, and beyond
    _MAX_PANELS panels. The endpoints themselves are never evaluated.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol)
    return sum(_bisect(f, [a, b], tol)[2])


def sqrt_endpoint_integral(f: Callable[[float], float], a: float, b: float,
                           singular_lo: bool, singular_hi: bool,
                           tol: float = 1e-11) -> float:
    """Integrate f over [a, b] where f may blow up like an inverse square root
    at one or both endpoints (a simple zero under the root).

    Singular sides are regularized by the substitution x = a + v**2 (resp.
    x = b - v**2), after which the integrand is smooth and :func:`integrate`
    reaches full double precision. The substituted integrand clamps v away
    from the region where a + v*v rounds back onto the endpoint.
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
        return integrate(f, a, b, tol=tol)

    width = b - a
    scale = max(abs(a), abs(b), width)
    # Below v_floor the cancellation noise of the integrand (typically a
    # 1 - K(x)^2 difference) swamps its value; the clamped stretch carries
    # O(v_floor^3) mass, far below any supported tolerance.
    v_floor = 1e-5 * math.sqrt(scale)
    v_top = math.sqrt(width)

    end, sign = (a, 1.0) if singular_lo else (b, -1.0)

    def g(v: float) -> float:
        v = max(v, v_floor)
        return 2.0 * v * f(end + sign * v * v)

    return integrate(g, 0.0, v_top, tol=tol)


def gk_quad(f: Callable[[float], float], a: float, b: float,
            tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod integral (QUADPACK) with a hard error check.

    For ranges that may be infinite or end on an integrable singularity.
    Poor error estimates become a typed QuadratureFailure instead of a
    console warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    Panels are bisected until, to ``tol``, the Gauss-Legendre integrals of
    each panel's halves match both the panel and the cubic Hermite
    interpolant through the accumulated values with the exact slopes f(x_i).
    The integrand is evaluated once at each knot.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 anchor: float | None = None, tol: float = 1e-12):
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
        ends = {x: self._safe_f(x) for x in (self.lo, self.hi)}
        self._inset_lo = self.lo if math.isfinite(ends[self.lo]) else self.lo + inset
        self._inset_hi = self.hi if math.isfinite(ends[self.hi]) else self.hi - inset

        self._base = 0.0
        if self.anchor != self._inset_lo:
            self._base = gk_quad(f, self.anchor, self._inset_lo, tol)

        xs, fs, vals = _bisect(
            f, np.linspace(self._inset_lo, self._inset_hi, _INITIAL_KNOTS).tolist(),
            self.tol, lambda x: ends[x] if x in ends else self._knot_f(x))
        acc = np.concatenate(([0.0], np.cumsum(vals)))
        self._spline = CubicHermiteSpline(np.asarray(xs), self._base + acc, np.asarray(fs))
        # Per knot interval: its left knot and the spline's four coefficients,
        # highest power first, for the scalar path of __call__.
        self._lefts = self._spline.x[:-1].tolist()
        self._pieces = list(zip(self._lefts, *self._spline.c.tolist()))

    def _safe_f(self, x: float) -> float:
        """f(x), or nan where f cannot be evaluated."""
        try:
            return float(self._f(x))
        except (ZeroDivisionError, ValueError, OverflowError, EvaluationDomainError):
            return math.nan

    def _knot_f(self, x: float) -> float:
        v = self._safe_f(x)
        if not math.isfinite(v):
            raise QuadratureFailure(f"integrand not finite at the knot x={x!r}")
        return v

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
