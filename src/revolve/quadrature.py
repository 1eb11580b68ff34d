"""Quadrature, root finding and differentiation utilities.

Integrands are array-first: the engine hands an integrand a float array of
nodes and takes back the array of its values. :func:`array_callable` passes
callables marked with :func:`takes_arrays` through (compiled expressions, the
momenta and integrands the constructors build) and makes any other callable
fit, by its own array call where a probe shows that agrees with per-point
calls and by a per-point loop otherwise.

One engine integrates every range: adaptive bisection into 8-node
Gauss-Legendre panels (:func:`integrate`). Each round evaluates the halves of
all open panels in one call and adds each panel's weighted node values in
node order, so panel sums are the floats a per-point loop would give
whenever the array and per-point values agree.

:func:`sqrt_endpoint_integral` removes an inverse square root blow-up at a
flagged end by the one endpoint substitution, the cosine map of
:func:`_clustered`, and the tail of a two-probe model of f next to the end
(:func:`_end_model`). It takes reconstruct's arclength and height and the
strips of :class:`AnchoredAntiderivative` (A(x) = int_anchor^x f(t) dt
cached as a cubic Hermite interpolant with slopes f(x_i)) from the anchor
and to points outside the cache, an infinite anchor mapped by
x = b + 1 - 1/t first. reconstruct's band, which the trace and
graph_height read, takes the same map and model onto 16-node panels.

Root finding and pointwise curvatures evaluate an antiderivative one float
at a time, so a float inside the cached interval takes a scalar path: a
bisection on the knots, kept as a Python list, and the piece's four
coefficients summed from the lowest power. Arrays take the same interval
rule and operation order in NumPy, so both paths return the same bits.
:func:`bracketed_root` is Brent's method, iterate for iterate as in the
classic C implementation.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (EvaluationDomainError, NonIntegrableSingularity, ParamOutOfRange,
                     QuadratureFailure, RootBracketFailure)

__all__ = [
    "takes_arrays",
    "array_callable",
    "integrate",
    "sqrt_endpoint_integral",
    "AnchoredAntiderivative",
    "numeric_derivative",
    "bracketed_root",
]

_EPS = float(np.finfo(float).eps)
_MIN_WIDTH = 64 * _EPS  # narrowest panel, relative to max(1, |x|)
_MAX_PANELS = 4096
_INITIAL_KNOTS = 17  # first knots of an antiderivative cache
_BRENT_ITERATIONS = 100
# Largest |f(d)| / |f(4d)| accepted at a singular end: an inverse square
# root gives 4**0.5 = 2, and any faster blow-up is refused.
_GROWTH = 4.0 ** 0.51
# Probe distance from a singular end, relative to max(|a|, |b|, b - a), and
# how near 1/2 the probes' power must be to take the end as an inverse square
# root (rounding noise in f, as in 1 - K^2 at a turning point, moves it ~1e-7).
_PROBE_DISTANCE = 1e-8
_SQRT_BAND = 1e-5

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
    from one call of f on all their nodes (a and b are not evaluated), a row
    per integrand where f returns rows. Each panel's weighted node values are
    added in node order, never by a dot product, as a per-point loop adds them."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    with np.errstate(all="ignore"):  # a non-finite panel sum is reported by the caller
        fx = np.asarray(f((c[:, None] + h[:, None] * _GL_NODES).ravel()))
    total = np.zeros(fx.shape[:-1] + h.shape)
    for j, w in enumerate(_GL_WEIGHTS):
        total += w * fx[..., j::8]
    return h * total


def _close(value: np.ndarray, ref: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(value - ref) <= np.maximum(tol, 1e-15 * np.abs(value))


def _bisect(f: Callable[[np.ndarray], np.ndarray], xs, tol: float,
            knot: Callable[[np.ndarray], np.ndarray] | None = None):
    """Adaptive bisection of the panels between the knots xs, of one
    integrand or, where f returns a row of values per integrand, several.

    A panel is accepted when, in every row, the Gauss-Legendre sum of its
    halves matches its own estimate to max(tol, 1e-15 * |sum|). With
    ``knot`` (f of one integrand at an array of knots, raising where it
    cannot be evaluated) the cubic Hermite interpolant of the panel's end
    values and slopes must also reproduce the integral over its left half
    (an error even about the midpoint) and, times h/8 for the width h, f at
    the midpoint as its slope there (an error odd about it). f is called
    once for the initial panels, then once per round on the halves of every
    open panel; ``knot`` once for the initial knots, then once per round on
    the open panels' midpoints, kept as knots where a panel splits. A
    round's panel estimates come before its knot evaluation, so an error the
    integrand raises inside a panel propagates as it is.

    Returns the final knots, f at each of them (nan without ``knot``) and the
    panel integrals (a row per integrand where f has rows), left to right.
    Raises QuadratureFailure on a non-finite sum, on a panel at the width
    floor that does not converge, and beyond _MAX_PANELS panels.
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
        both = halves[..., :n] + halves[..., n:]
        if not np.all(np.isfinite(both)):
            i = int(np.argmin(np.isfinite(both).reshape(-1, n).all(0)))
            raise QuadratureFailure(
                f"integral over [{float(x0[i])!r}, {float(x1[i])!r}] is not finite")
        ok = _close(both, whole, tol)
        fm = np.full(m.shape, math.nan) if knot is None else knot(m)
        if knot is not None:  # the cubic Hermite interpolant's value and slope at the midpoint
            h = x1 - x0
            ok &= _close(0.5 * whole + h * (f0 - f1) / 8.0, halves[..., :n], tol)
            ok &= _close(0.1875 * whole - h * (f0 + f1) / 32.0, h * fm / 8.0, tol)
        ok = np.logical_and.reduce(ok) if ok.ndim > 1 else ok  # in every row
        accepted.append((x0[ok], x1[ok], f1[ok], both.compress(ok, axis=-1)))
        n_accepted += int(np.count_nonzero(ok))
        split = ~ok
        if not np.any(split):
            break
        x0, x1, f0, f1, fm, m = x0[split], x1[split], f0[split], f1[split], fm[split], m[split]
        floor = x1 - x0 <= _MIN_WIDTH * np.maximum(1.0, np.abs(x0))
        if np.any(floor):
            i = int(np.argmax(floor))
            raise QuadratureFailure(
                f"quadrature did not converge on [{float(x0[i])!r}, {float(x1[i])!r}] "
                f"(halves differ by {np.abs(both - whole)[..., split][..., i].max():.3e})")
        if n_accepted + 2 * x0.size > _MAX_PANELS:
            raise QuadratureFailure(f"quadrature needs more than {_MAX_PANELS} panels")
        x0, x1 = np.concatenate((x0, m)), np.concatenate((m, x1))
        f0, f1 = np.concatenate((f0, fm)), np.concatenate((fm, f1))
        whole = halves.compress(np.concatenate((split, split)), axis=-1)  # open panels' halves
    lefts, rights, f_rights, sums = (np.concatenate(parts, axis=-1) for parts in zip(*accepted))
    order = np.argsort(lefts)
    return (np.concatenate((xs[:1], rights[order])),
            np.concatenate((fs[:1], f_rights[order])), sums[..., order])


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
    # the pieces added from left to right
    return float(np.cumsum(_bisect(array_callable(f, a, b), [a, b], tol)[2])[-1])


def sqrt_endpoint_integral(f: Callable[[float], float], a: float, b: float,
                           singular_lo: bool, singular_hi: bool,
                           tol: float = 1e-11) -> float:
    """int_a^b f where f may blow up like an inverse square root at the
    flagged endpoints: one run of :func:`integrate` of f dx/du, smooth in the
    variable u of :func:`_substitution`, plus the tail of the end model of
    :func:`_end_model` within t4 ~ 4e-8 max(|a|, |b|, b - a) of each flagged
    end (at most its half of b - a), where f may be mostly rounding noise.
    NonIntegrableSingularity where f is not finite there or grows faster
    than an inverse square root. With no end flagged this is :func:`integrate`.
    """
    if a == b:
        return 0.0
    if b < a:
        return -sqrt_endpoint_integral(f, b, a, singular_hi, singular_lo, tol=tol)
    g, ((u0, z0), (u1, z1)) = _substitution(
        array_callable(f, a, b), a, b, singular_lo, singular_hi)
    return z0 + integrate(g, u0, u1, tol) + z1


def _clustered(u, a: float, b: float, lo: bool, hi: bool):
    """x(u) from a to b for u in [0, 1], clustered like a cosine toward each
    flagged end and linear where neither is, with x - a and b - x (each to
    full precision near its own end, where it vanishes like u**2). Its
    dx/du is :func:`_clustered_slope`, apart, since the integrand of
    :func:`_substitution` needs only x."""
    h, w = 0.5 * math.pi, b - a
    if lo and hi:
        cl, ch = np.sin(h * u) ** 2, np.cos(h * u) ** 2
    elif lo:
        cl, ch = 2.0 * np.sin(0.5 * h * u) ** 2, np.cos(h * u)
    elif hi:
        cl, ch = np.sin(h * u), 2.0 * np.sin(0.5 * h * (1.0 - u)) ** 2
    else:
        cl, ch = u, 1.0 - u
    return np.where(cl <= ch, a + w * cl, b - w * ch), w * cl, w * ch


def _clustered_slope(u, a: float, b: float, lo: bool, hi: bool):
    """dx/du of :func:`_clustered`."""
    h, w = 0.5 * math.pi, b - a
    if lo and hi:
        return w * (h * np.sin(2.0 * h * u))
    if lo:
        return w * (h * np.sin(h * u))
    if hi:
        return w * (h * np.cos(h * u))
    return w * np.ones_like(u)


def _unclustered(cl: float, ch: float, lo: bool, hi: bool) -> float:
    """The u where :func:`_clustered` onto [0, 1] gives x = cl, in closed
    form from the smaller of cl and ch = 1 - cl; 0 and 1 exactly at the ends."""
    h = 0.5 * math.pi
    if lo and hi:  # cl = sin(h u)**2, ch = cos(h u)**2
        return math.asin(math.sqrt(cl)) / h if cl <= ch else 1.0 - math.asin(math.sqrt(ch)) / h
    if lo:  # cl = 2 sin(h u / 2)**2, ch = cos(h u)
        return 2.0 * math.asin(math.sqrt(0.5 * cl)) / h if cl <= ch else math.acos(ch) / h
    if hi:  # cl = sin(h u), ch = 2 sin(h (1 - u) / 2)**2
        return math.asin(cl) / h if cl <= ch else 1.0 - 2.0 * math.asin(math.sqrt(0.5 * ch)) / h
    return cl


def _substitution(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  lo: bool, hi: bool):
    """(g, ends) for f over [a, b], a < b, with u in [a, b]: x(u) is
    :func:`_clustered` of (u - a) / (b - a), or x = u where no end is
    flagged, and g(u) = f(x) dx/du, with dx/du from the rounded node's
    distances to the ends, whose square root cancels an inverse square root
    of f at a flagged end, rounding of x included; no node comes nearer that
    end than the reach of its model. ``ends`` holds (u, z) per end: the
    engine runs between the two u, and z is the integral of f between the
    end and its u by the tail of :func:`_end_model` (0 where the end is not
    flagged)."""
    ends = [(a, 0.0), (b, 0.0)]
    if not (lo or hi):
        return f, ends
    w = b - a

    def x(u):
        return _clustered((u - a) / w, a, b, lo, hi)

    @takes_arrays
    def g(u: np.ndarray) -> np.ndarray:
        xs = x(u)[0]
        dlo, dhi = xs - a, b - xs
        # dx/du in the distances: pi sqrt(dlo dhi) / w with both ends flagged,
        # pi sqrt(dlo (w + dhi)) / (2 w) with the low end alone
        scale = (math.pi if lo and hi else 0.5 * math.pi) / w
        return f(xs) * (scale * np.sqrt((dlo if lo else w + dlo) * (dhi if hi else w + dhi)))

    for i, flag in enumerate((lo, hi)):
        if flag:  # the reach u of the end model, where the engine starts
            t4, _, tail = _end_model(f, a, b, (a, b)[i], 1.0 - 2.0 * i)
            t = min(t4, 0.5 * w if lo and hi else w) / w
            u = min(b, a + w * _unclustered(*((t, 1.0 - t) if i == 0 else (1.0 - t, t)), lo, hi))
            ends[i] = (u, float(tail(x(u)[1 + i])))
    return g, ends


def _end_model(f: Callable[[float], float], a: float, b: float, end: float,
               sign: float):
    """(t4, model, tail) at the singular end ``end`` of [a, b], ``sign``
    pointing inside: model(t) stands for f at the distances t < t4 from the
    end and tail(t) for its integral from the end to t. f is probed at the
    rounded distances t1 ~ d and t4 ~ 4d, d ~ 1e-8 max(|a|, |b|, b - a) and
    no nearer than 16 ulps of the end: sqrt(t) f = A + B t through the
    probes where their power p (|f| ~ t**-p) is 1/2 to within _SQRT_BAND,
    else the power law through probes 1e-4 as far. NonIntegrableSingularity
    where f is not finite at a probe or p > 0.51."""
    least = 16.0 * abs(math.nextafter(end, end + sign) - end)
    d = max(_PROBE_DISTANCE * max(abs(a), abs(b), b - a), least)
    for dist in (d, max(1e-4 * d, least)):
        t1, t4 = (sign * ((end + sign * t) - end) for t in (dist, 4.0 * dist))
        f1, f4 = (_value_or_nan(f, end + sign * t) for t in (t1, t4))
        if not (math.isfinite(f1) and math.isfinite(f4) and abs(f1) <= _GROWTH * abs(f4)):
            raise NonIntegrableSingularity(
                f"the integrand grows faster than an inverse square root at x={end!r} "
                f"(f = {f1:.6g} at {t1:.3g} from it, {f4:.6g} at {t4:.3g})")
        p = math.log(abs(f1 / f4)) / math.log(t4 / t1) if f1 != 0.0 else 0.0
        if dist == d and abs(p - 0.5) <= _SQRT_BAND:
            slope = (math.sqrt(t4) * f4 - math.sqrt(t1) * f1) / (t4 - t1)
            return (t4, lambda t: (math.sqrt(t4) * f4 + slope * (t - t4)) / np.sqrt(t),
                    lambda t: 2.0 * np.sqrt(t) * (math.sqrt(t4) * f4 + slope * (t / 3.0 - t4)))
    return (t4, lambda t: f4 * (t / t4) ** -p,
            lambda t: f4 * t4 * (t / t4) ** (1.0 - p) / (1.0 - p))


def _value_or_nan(f: Callable[[float], float], x: float) -> float:
    """f(x), or nan where f cannot be evaluated."""
    try:
        return float(f(x))
    except _UNDEFINED:
        return math.nan


def _strip(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float) -> float:
    """int_a^b f, f in the array protocol, for a range that may be infinite
    or end where f is undefined: the strip from an anchor to a cache, or to
    a point outside it.

    An infinite end is mapped onto (0, 1] by x = b + 1 - 1/t (resp.
    x = a - 1 + 1/t). An end where f raises or is not finite is flagged for
    :func:`sqrt_endpoint_integral`, unless f is also undefined at the
    midpoint, where a node of the plain engine raises the error of f.
    """
    if a == b:
        return 0.0
    if b < a:
        return -_strip(f, b, a, tol)
    if math.isinf(a) or math.isinf(b):
        if math.isinf(a) and math.isinf(b):
            raise QuadratureFailure(f"cannot integrate over [{a!r}, {b!r}]")
        end, sign = (b, -1.0) if math.isinf(a) else (a, 1.0)
        return _strip(takes_arrays(lambda t: f(end + sign * (1.0 / t - 1.0)) / (t * t)),
                      0.0, 1.0, tol)
    bad_lo, bad_hi = (not math.isfinite(_value_or_nan(f, x)) for x in (a, b))
    if (bad_lo or bad_hi) and not math.isfinite(_value_or_nan(f, 0.5 * (a + b))):
        bad_lo = bad_hi = False
    return sqrt_endpoint_integral(f, a, b, bad_lo, bad_hi, tol)


class AnchoredAntiderivative:
    """A(x) = int_anchor^x f(t) dt over [lo, hi], lo < hi, cached.

    The anchor defaults to ``lo`` but may lie outside the interval (0 below a
    positive domain, or -inf) as long as f is integrable on [anchor, lo].
    Panels are bisected until, to ``tol``, the Gauss-Legendre integrals of
    each panel's halves match both the panel and the cubic Hermite
    interpolant through the accumulated values with the exact slopes f(x_i),
    and its midpoint slope matches f there (:func:`_bisect`). f goes through
    :func:`array_callable` once, on [lo, hi], and its knots, its end values
    and every strip take that form, so a plain callable is probed once; each
    bisection round calls it once on the nodes of all open panels and once
    on their midpoints, and it is evaluated once at each knot.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 anchor: float | None = None, tol: float = 1e-12):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParamOutOfRange(f"bad interval [{lo!r}, {hi!r}]")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ParamOutOfRange(f"quadrature tolerance must be finite and positive, "
                                  f"got {tol!r}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.anchor = self.lo if anchor is None else float(anchor)
        if math.isnan(self.anchor):
            raise ParamOutOfRange(f"bad anchor {anchor!r}: it must be a number or an infinite end")
        self.tol = float(tol)
        self._f = f = array_callable(f, self.lo, self.hi)

        # Keep spline knots away from endpoints where f itself is singular
        # (but integrable); the short end strips are integrated directly.
        inset = 1e-8 * (self.hi - self.lo)
        ends = {x: _value_or_nan(f, x) for x in (self.lo, self.hi)}
        self._inset_lo = self.lo if math.isfinite(ends[self.lo]) else self.lo + inset
        self._inset_hi = self.hi if math.isfinite(ends[self.hi]) else self.hi - inset

        self._base = 0.0
        if self.anchor != self._inset_lo:
            self._base = _strip(f, self.anchor, self._inset_lo, tol)

        def knot(x: np.ndarray) -> np.ndarray:
            # f at the knots x, the ends known already, the others from one
            # array call; QuadratureFailure at the first where f cannot be
            # evaluated or is not finite
            at_end = (x == self.lo) | (x == self.hi)
            inner = x[~at_end]
            try:
                with np.errstate(all="ignore"):
                    got = f(inner)
            except _UNDEFINED:
                got = np.array([_value_or_nan(f, v) for v in inner.tolist()])
            finite = np.isfinite(got)
            if not np.all(finite):
                raise QuadratureFailure(
                    f"integrand not finite at the knot x={float(inner[np.argmin(finite)])!r}")
            out = np.empty(x.shape)
            out[at_end] = [ends[v] for v in x[at_end].tolist()]
            out[~at_end] = got
            return out

        xs, fs, vals = _bisect(
            f, np.linspace(self._inset_lo, self._inset_hi, _INITIAL_KNOTS),
            self.tol, knot)
        ys = self._base + np.concatenate(([0.0], np.cumsum(vals)))
        self._knots, self._values, self._slopes = xs, ys, fs
        # The cubic Hermite piece on each knot interval, highest power first,
        # by the formulas of SciPy's CubicHermiteSpline.
        dx = np.diff(xs)
        slope = np.diff(ys) / dx
        t = (fs[:-1] + fs[1:] - 2 * slope) / dx
        self._coef = (t / dx, (slope - fs[:-1]) / dx - t, fs[:-1], ys[:-1])
        # Per knot interval: its left knot and the four coefficients, for the
        # scalar path of __call__.
        self._lefts = xs[:-1].tolist()
        self._pieces = list(zip(self._lefts, *(c.tolist() for c in self._coef)))

    def _hermite(self, x: np.ndarray) -> np.ndarray:
        """The cached interpolant at an array of points inside the cache, by
        the scalar path's interval rule and operation order."""
        i = np.searchsorted(self._knots[:-1], x, side="right") - 1
        c0, c1, c2, c3 = (c[i] for c in self._coef)
        s = x - self._knots[i]
        res = (0.0 + c3) + c2 * s
        z = s * s
        res = res + c1 * z
        z = z * s
        return res + c0 * z

    def __call__(self, x):
        if isinstance(x, float) and self._inset_lo <= x <= self._inset_hi:
            # The interval is knots[i] <= x < knots[i + 1], with the last knot
            # in the last interval, and the powers of s are accumulated from
            # the lowest, as SciPy's PPoly evaluates. float(x) makes a numpy
            # scalar return a Python float.
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
            out = self._hermite(xarr)
            return float(out) if np.isscalar(x) else out
        out = np.empty(xarr.shape)
        out[inside] = self._hermite(xarr[inside])
        for idx in np.ndindex(xarr.shape):
            if not inside[idx]:
                out[idx] = self._outside(float(xarr[idx]))
        return float(out) if np.isscalar(x) else out

    def _outside(self, x: float) -> float:
        """A(x) outside the cache, by a strip from its nearer end; between an
        inset and its domain end, from that end, so that the strip ends on
        the singularity of f and the substitution absorbs it."""
        f, tol = self._f, self.tol
        if x < self._inset_lo:
            if self.lo < self._inset_lo and x >= self.lo:
                return self._at_lo + _strip(f, self.lo, x, tol)
            return self._base + _strip(f, self._inset_lo, x, tol)
        if self._inset_hi < self.hi and x <= self.hi:
            return self._at_hi - _strip(f, x, self.hi, tol)
        return self(self._inset_hi) + _strip(f, self._inset_hi, x, tol)

    @cached_property
    def _at_lo(self) -> float:
        return self._base - _strip(self._f, self.lo, self._inset_lo, self.tol)

    @cached_property
    def _at_hi(self) -> float:
        return self(self._inset_hi) + _strip(self._f, self._inset_hi, self.hi, self.tol)


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
    """Root of g on [a, b] by Brent's method; typed error when unbracketed.

    The iteration is brentq.c of SciPy (and of Brent's ALGOL original)
    operation for operation, so the iterates and the root are its bits: it
    stops when g vanishes or the bracket's half-width falls below
    (xtol + 4 eps |x|) / 2. RootBracketFailure when g has the same sign at
    both ends, is nan, or has not converged after _BRENT_ITERATIONS.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(g(xpre)), float(g(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre) or math.isnan(fcur) or (
            math.copysign(1.0, fpre) == math.copysign(1.0, fcur)):
        raise RootBracketFailure(
            f"no sign change on [{a!r}, {b!r}] (g(a)={fpre:.3e}, g(b)={fcur:.3e})")
    xblk = fblk = spre = scur = 0.0
    rtol = 4 * _EPS
    for _ in range(_BRENT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise RootBracketFailure(f"g({xcur!r}) is nan; Brent's method cannot continue")
    raise RootBracketFailure(
        f"Brent's method did not converge on [{a!r}, {b!r}] in {_BRENT_ITERATIONS} iterations")
