"""Quadrature and differentiation utilities.

Integrands are array-first: the engine hands an integrand a float array of
nodes and takes back the array of its values. :func:`array_callable` passes
callables marked with :func:`takes_arrays` through (compiled expressions, the
momenta and integrands the constructors build) and makes any other callable
fit, by its own array call where a probe shows that agrees with per-point
calls and by a per-point loop otherwise.

One engine integrates every finite range: adaptive bisection into 8-node
Gauss-Legendre panels (:func:`integrate`). Each round evaluates the halves of
all open panels in one call and adds each panel's weighted node values in
node order, so panel sums are the floats a per-point loop would give
whenever the array and per-point values agree. On top of it,
:func:`sqrt_endpoint_integral` removes inverse-square-root endpoint blow-ups
by the substitution x = a + v**2, and :class:`AnchoredAntiderivative` caches
A(x) = int_anchor^x f(t) dt as a cubic Hermite interpolant whose slopes are
the exact integrand values. QUADPACK (:func:`gk_quad`) is left only for
ranges that may be infinite or end on a singularity: the strip from the
anchor to the cache, and points outside it.

Flows and root finding evaluate an antiderivative one float at a time, so a
float inside the cached interval takes a scalar path: a bisection on the
knots, kept as a Python list, and the spline's own coefficients summed in
SciPy's PPoly order. It returns the same bits as the SciPy spline at about a
seventh of the cost. Arrays take the SciPy spline, and points outside the
cache direct quadrature. SciPy is imported inside the functions that use it,
so importing the package loads none of it.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from typing import Callable

import numpy as np

from .errors import EvaluationDomainError, QuadratureFailure, RootBracketFailure

__all__ = [
    "takes_arrays",
    "array_callable",
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
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_WEIGHTS = _GL_WEIGHTS.tolist()

# The array protocol's probe: where in a range (as fractions of its width,
# multiples of the golden ratio mod 1, clear of simple fractions where a
# pole tends to sit) and how far, in units in the last place, an array call
# may differ from per-point calls.
_PROBE_AT = np.arange(1, 6) * 0.6180339887498949 % 1.0
_PROBE_ULPS = 4

# What a per-point call raises where the integrand cannot be evaluated.
_UNDEFINED = (ZeroDivisionError, ValueError, OverflowError, EvaluationDomainError)


def takes_arrays(f):
    """Mark f as taking a float array and returning the array of its values,
    elementwise; :func:`array_callable` then passes it through unprobed."""
    f.takes_arrays = True
    return f


def _pointwise(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f at each element of the array x, called with one Python float at a time."""
    return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _agrees(f: Callable, lo: float, hi: float) -> bool:
    """Whether f maps an array of points inside [lo, hi] to the array of its
    per-point values, to _PROBE_ULPS units in the last place."""
    xs = lo + (hi - lo) * _PROBE_AT
    try:
        with np.errstate(all="ignore"):
            got = f(xs)
        want = _pointwise(f, xs)
    except Exception:  # any failure leaves f on per-point calls
        return False
    if not (isinstance(got, np.ndarray) and got.shape == xs.shape and got.dtype.kind == "f"):
        return False
    with np.errstate(all="ignore"):
        near = np.abs(got - want) <= _PROBE_ULPS * np.spacing(np.abs(want))
    return bool(np.all(near | (got == want) | (np.isnan(got) & np.isnan(want))))


def array_callable(f: Callable[[float], float], lo: float, hi: float) -> Callable:
    """f in the array protocol, for points of [lo, hi].

    A callable marked with :func:`takes_arrays` is returned as it is. Any
    other is probed once, at five points inside [lo, hi]: if its array call
    raises, returns no float array of the same shape, or differs from
    per-point calls by more than _PROBE_ULPS units in the last place, arrays
    are evaluated by a per-point loop (``math.sin``, ``lambda x: 1.0``, a
    branch on ``x > 0``). An array call that meets a floating-point fault is
    evaluated again per point, so the per-point errors surface. The result
    still takes single floats, which go to f unchanged.
    """
    if getattr(f, "takes_arrays", False):
        return f
    vectorized = _agrees(f, lo, hi)

    @takes_arrays
    def g(x):
        if not isinstance(x, np.ndarray):
            return f(x)
        if vectorized:
            try:
                with np.errstate(all="raise"):
                    return f(x)
            except FloatingPointError:
                pass
        return _pointwise(f, x)

    return g


def _gl(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8-node Gauss-Legendre estimates of int_a^b f for the panels [a[i], b[i]],
    from one call of f on all their nodes (a and b are not evaluated). Each
    panel's weighted node values are added in node order, never by a dot
    product, so its sum is the float a per-point loop would give."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    with np.errstate(all="ignore"):  # a non-finite panel sum is reported by the caller
        fx = f((c[:, None] + h[:, None] * _GL_NODES).ravel()).reshape(len(a), 8)
    total = np.zeros(len(a))
    for j, w in enumerate(_GL_WEIGHTS):
        total += w * fx[:, j]
    return h * total


def _close(value: np.ndarray, ref: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(value - ref) <= np.maximum(tol, 1e-15 * np.abs(value))


def _bisect(f: Callable[[np.ndarray], np.ndarray], xs, tol: float,
            knot: Callable[[np.ndarray], np.ndarray] | None = None,
            max_panels: int = _MAX_PANELS):
    """Adaptive bisection of the panels between the knots xs.

    A panel is accepted when the Gauss-Legendre sum of its halves matches
    its own estimate to max(tol, 1e-15 * |sum|), and contributes that sum.
    With ``knot`` (f at an array of knots, raising where it cannot be
    evaluated) the cubic Hermite interpolant of the panel's end values and
    slopes must also reproduce the integral over its left half; each knot is
    evaluated once. f is called on arrays: once for the initial panels, then
    once per round for the halves of every open panel; ``knot`` once for the
    initial knots, then once per round for the midpoints of the panels the
    round splits. Every panel estimate comes before the first knot
    evaluation, so an error the integrand raises inside a panel propagates
    as it is.

    Returns the final knots, f at each of them (nan without ``knot``) and the
    panel integrals, as arrays from left to right. Raises QuadratureFailure
    on a non-finite sum, on a panel at the width floor that does not
    converge, and beyond ``max_panels`` panels.
    """
    xs = np.asarray(xs, dtype=float)
    x0, x1 = xs[:-1], xs[1:]
    whole = _gl(f, x0, x1)
    fs = np.full(xs.shape, math.nan) if knot is None else knot(xs)
    f0, f1 = fs[:-1], fs[1:]
    accepted = []  # (left ends, right ends, f at right ends, sums) per round
    n_accepted = 0
    while True:
        n = x0.size
        m = 0.5 * (x0 + x1)
        halves = _gl(f, np.concatenate((x0, m)), np.concatenate((m, x1)))
        left, right = halves[:n], halves[n:]
        both = left + right
        if not np.all(np.isfinite(both)):
            i = int(np.argmin(np.isfinite(both)))
            raise QuadratureFailure(
                f"integral over [{float(x0[i])!r}, {float(x1[i])!r}] is not finite")
        ok = _close(both, whole, tol)
        if knot is not None:
            # cubic Hermite at the midpoint of the panel
            ok &= _close(0.5 * whole + (x1 - x0) * (f0 - f1) / 8.0, left, tol)
        accepted.append((x0[ok], x1[ok], f1[ok], both[ok]))
        n_accepted += int(np.count_nonzero(ok))
        split = ~ok
        if not np.any(split):
            break
        x0, x1, f0, f1 = x0[split], x1[split], f0[split], f1[split]
        m, whole, left, right, both = m[split], whole[split], left[split], right[split], both[split]
        floor = x1 - x0 <= _MIN_WIDTH * np.maximum(1.0, np.abs(x0))
        if np.any(floor):
            i = int(np.argmax(floor))
            raise QuadratureFailure(
                f"quadrature did not converge on [{float(x0[i])!r}, {float(x1[i])!r}] "
                f"(halves differ by {abs(both[i] - whole[i]):.3e})")
        if n_accepted + 2 * x0.size > max_panels:
            raise QuadratureFailure(f"quadrature needs more than {max_panels} panels")
        fm = np.full(m.shape, math.nan) if knot is None else knot(m)
        x0, x1 = np.concatenate((x0, m)), np.concatenate((m, x1))
        f0, f1 = np.concatenate((f0, fm)), np.concatenate((fm, f1))
        whole = np.concatenate((left, right))
    lefts, rights, f_rights, sums = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.argsort(lefts)
    return (np.concatenate((xs[:1], rights[order])),
            np.concatenate((fs[:1], f_rights[order])), sums[order])


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-11) -> float:
    """int_a^b f by adaptive bisection into 8-node Gauss-Legendre panels.

    f goes through :func:`array_callable`. A panel is accepted when its
    halves sum to its own estimate within max(tol, 1e-15 * |sum|). Raises
    QuadratureFailure on a non-finite sum, on a panel at the width floor
    that does not converge, and beyond _MAX_PANELS panels. The endpoints
    themselves are never evaluated.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol)
    return float(_panel_integrals(array_callable(f, a, b), [a, b], tol)[0])


def _panel_integrals(f: Callable[[np.ndarray], np.ndarray], xs, tol: float) -> np.ndarray:
    """int_xs[i]^xs[i+1] f for every i, from one run of the engine over all the
    panels; each is the sum that ``integrate(f, xs[i], xs[i+1], tol)`` gives,
    its pieces added from left to right. Each panel may split into up to
    _MAX_PANELS pieces, counted over all of them."""
    xs = np.asarray(xs, dtype=float)
    knots, _, pieces = _bisect(f, xs, tol, max_panels=_MAX_PANELS * (len(xs) - 1))
    out = np.zeros(len(xs) - 1)
    np.add.at(out, np.searchsorted(xs, knots[:-1], side="right") - 1, pieces)
    return out


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
    f = array_callable(f, a, b)
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

    @takes_arrays
    def g(v: np.ndarray) -> np.ndarray:
        v = np.maximum(v, v_floor)
        return 2.0 * v * f(end + sign * v * v)

    return integrate(g, 0.0, v_top, tol=tol)


def gk_quad(f: Callable[[float], float], a: float, b: float,
            tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod integral (QUADPACK) with a hard error check.

    For ranges that may be infinite or end on an integrable singularity.
    Poor error estimates become a typed QuadratureFailure instead of a
    console warning.
    """
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, abserr = quad(f, a, b, epsabs=tol, epsrel=1e-13, limit=200)
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
    f goes through :func:`array_callable`; each bisection round calls it once
    on the nodes of all open panels and once on the new knots, and it is
    evaluated once at each knot.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 anchor: float | None = None, tol: float = 1e-12):
        from scipy.interpolate import CubicHermiteSpline

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

        f_array = array_callable(f, self.lo, self.hi)

        def knot(x: np.ndarray) -> np.ndarray:
            # the end values are known already
            at_end = (x == self.lo) | (x == self.hi)
            out = np.empty(x.shape)
            out[at_end] = [ends[v] for v in x[at_end].tolist()]
            out[~at_end] = self._knot_values(f_array, x[~at_end])
            return out

        xs, fs, vals = _bisect(
            f_array, np.linspace(self._inset_lo, self._inset_hi, _INITIAL_KNOTS),
            self.tol, knot)
        acc = np.concatenate(([0.0], np.cumsum(vals)))
        self._spline = CubicHermiteSpline(xs, self._base + acc, fs)
        # Per knot interval: its left knot and the spline's four coefficients,
        # highest power first, for the scalar path of __call__.
        self._lefts = self._spline.x[:-1].tolist()
        self._pieces = list(zip(self._lefts, *self._spline.c.tolist()))

    def _safe_f(self, x: float) -> float:
        """f(x), or nan where f cannot be evaluated."""
        try:
            return float(self._f(x))
        except _UNDEFINED:
            return math.nan

    def _knot_values(self, f_array, xs: np.ndarray) -> np.ndarray:
        """f at the knots xs from one array call; QuadratureFailure at the
        first knot where f cannot be evaluated or is not finite."""
        try:
            with np.errstate(all="ignore"):
                fs = f_array(xs)
        except _UNDEFINED:
            fs = np.array([self._safe_f(x) for x in xs.tolist()])
        finite = np.isfinite(fs)
        if not np.all(finite):
            x = float(xs[np.argmin(finite)])
            raise QuadratureFailure(f"integrand not finite at the knot x={x!r}")
        return fs

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
    from scipy.optimize import brentq

    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        raise RootBracketFailure(
            f"no sign change on [{a!r}, {b!r}] (g(a)={ga:.3e}, g(b)={gb:.3e})")
    return float(brentq(g, a, b, xtol=xtol, rtol=4 * np.finfo(float).eps))
