"""Reconstruction of generating curves from a momentum.

Quadrature route: with K the momentum, ds = dx / sqrt(1 - K^2) gives the
arclength between parallels and dz = K dx / sqrt(1 - K^2) the height of the
curve over the x-axis; both integrands blow up like an inverse square root
where |K| reaches 1, which the quadrature layer absorbs. arclength,
height_displacement and graph_height share one guard, _singular_ends, which
flags the endpoints where that happens. The guard's scan and the integrands
evaluate the momentum on arrays, through the quadrature layer's array
protocol, and graph_height integrates all its inner panels in one run of the
engine instead of one run per panel.

Flow route: the unit-speed system xdot = +-sqrt(1 - K(x)^2), zdot = K(x) is
integrated in its tangent-angle form

    xdot = cos(phi),  zdot = sin(phi),  phidot = K'(x)

which is the same curve (sin(phi) = K(x) is a first integral) but stays
Lipschitz through the turning points K^2 = 1, where the sign of xdot flips.
Turning points are located as transversal zeros of cos(phi) and recorded as
branch events; hitting the declared x-domain transversally stops the flow.
The system is integrated by the DOP853 method of :mod:`revolve._dop853`,
which locates the events on its dense output by Brent's method.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from . import _dop853 as dop853
from ._records import records
from .curvature import CurvatureSample
from .errors import (AxisSingularity, DegeneratePolyline, DomainViolation,
                     EventLocatorFailure, ParamOutOfRange, StepUnderflow)
from .momentum import Momentum
from .quadrature import (_panel_integrals, array_callable, sqrt_endpoint_integral,
                         takes_arrays)

__all__ = [
    "Profile",
    "arclength",
    "graph_height",
    "height_displacement",
    "integrate_profile",
    "momentum_of_profile",
    "discrete_curvatures",
    "profile_to_csv",
]

_SINGULAR_GAP = 1e-10  # 1 - K^2 below this at an endpoint counts as singular


@dataclass(frozen=True)
class Profile:
    """Unit-speed samples (s, x, z, tx, tz) of a generating curve.

    branch_events lists the arclength values of turning points, where the
    sign of xdot flipped and a new monotone branch began.
    """

    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    tx: np.ndarray
    tz: np.ndarray
    branch_events: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.s)


def _endpoint_singular(m: Momentum, x_end: float, inward: float, width: float) -> bool:
    """Whether 1 - K^2 vanishes (to _SINGULAR_GAP) at the endpoint x_end;
    DomainViolation where it does not grow just inside."""
    g = m.gap(x_end)
    if g > _SINGULAR_GAP:
        return False
    if m.gap(x_end + inward * 1e-6 * width) <= max(g, 0.0):
        raise DomainViolation(f"|K| >= 1 just inside the endpoint x = {x_end:.6g}")
    return True


def _singular_ends(m: Momentum, K, a: float, b: float) -> tuple[bool, bool]:
    """Guard of the quadrature routes over [a, b], a < b, with K the array
    form of m.eval: DomainViolation where |K| > 1 inside, then one flag per
    endpoint where 1 - K^2 vanishes. sqrt_endpoint_integral refuses a flagged
    end where the integrand grows faster than an inverse square root, as it
    does where the zero is not simple (NonIntegrableSingularity)."""
    xs = np.linspace(a, b, 257)[1:-1]
    k = K(xs)
    with np.errstate(all="ignore"):
        outside = 1.0 - k * k < -1e-12
    if np.any(outside):
        x = float(xs[np.argmax(outside)])
        raise DomainViolation(
            f"|K| > 1 at x = {x:.6g}; no curve spans [{a:.6g}, {b:.6g}]")
    w = b - a
    return _endpoint_singular(m, a, +1.0, w), _endpoint_singular(m, b, -1.0, w)


def _integrand(K, height: bool):
    """dz/dx = K / sqrt(1 - K^2) with ``height``, else ds/dx = 1 / sqrt(1 - K^2),
    on arrays; inf where |K| >= 1."""
    @takes_arrays
    def f(x: np.ndarray) -> np.ndarray:
        k = K(x)
        g = 1.0 - k * k
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(g > 0.0, (k if height else 1.0) / np.sqrt(g), np.inf)
    return f


def _signed_integral(m: Momentum, height: bool, x0: float, x1: float, tol: float) -> float:
    """int_x0^x1 of _integrand(m.eval, height), negated when x1 < x0."""
    if x0 == x1:
        return 0.0
    a, b = (x1, x0) if x1 < x0 else (x0, x1)
    K = array_callable(m.eval, *m.domain)
    sing_lo, sing_hi = _singular_ends(m, K, a, b)
    val = sqrt_endpoint_integral(_integrand(K, height), a, b, sing_lo, sing_hi, tol=tol)
    return -val if x1 < x0 else val


def arclength(m: Momentum, x0: float, x1: float, tol: float = 5e-11) -> float:
    """Signed arclength of the curve between the parallels x0 and x1.

    Endpoints may sit exactly on |K| = 1 (vertical tangent); such simple
    turning points are integrable and handled at full precision.
    """
    return _signed_integral(m, False, x0, x1, tol)


def height_displacement(m: Momentum, x0: float, x1: float, tol: float = 5e-11) -> float:
    """z(x1) - z(x0) along the branch where x is monotone increasing."""
    return _signed_integral(m, True, x0, x1, tol)


def _clustered(n: int, lo: bool, hi: bool) -> np.ndarray:
    """n fractions from 0 to 1, clustered like a cosine toward each end that
    is flagged (a singular end of a height integral, a turning point of a
    flow branch) and equispaced where neither is."""
    u = np.linspace(0.0, 1.0, n)
    if lo and hi:
        return 0.5 * (1.0 - np.cos(math.pi * u))
    if lo:
        return 1.0 - np.cos(0.5 * math.pi * u)
    if hi:
        return np.sin(0.5 * math.pi * u)
    return u


def graph_height(m: Momentum, x0: float, x1: float, n: int = 513,
                 tol: float = 1e-11) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative height z(x) over [x0, x1], anchored z(x0) = 0.

    Returns (x_samples, z_samples) on n points, equispaced unless an end is
    singular (|K| -> 1 there), where the grid clusters like a cosine toward
    it. End panels the guard flags take the square-root substitution. All other
    panels go to one run of the adaptive Gauss-Legendre engine of the
    quadrature layer, which gives each the sum a separate ``integrate`` call
    would.
    """
    if not x1 > x0:
        raise DomainViolation(f"need x1 > x0, got [{x0!r}, {x1!r}]")
    if n < 2:
        raise DomainViolation("need at least two samples")
    K = array_callable(m.eval, *m.domain)
    sing_lo, sing_hi = _singular_ends(m, K, x0, x1)

    xs = x0 + (x1 - x0) * _clustered(n, sing_lo, sing_hi)
    xs[0], xs[-1] = x0, x1

    f = _integrand(K, height=True)
    panel_tol = max(tol / (4.0 * math.sqrt(n)), 1e-13)
    end_tol = max(0.25 * tol, 2e-12)
    vals = np.zeros(n - 1)
    first, last = int(sing_lo), n - 1 - int(sing_hi)  # the panels in between
    if first < last:
        vals[first:last] = _panel_integrals(f, xs[first:last + 1], panel_tol)
    if sing_lo:
        vals[0] = sqrt_endpoint_integral(f, x0, float(xs[1]), True, False, tol=end_tol)
    if sing_hi:
        vals[-1] = sqrt_endpoint_integral(f, float(xs[-2]), x1, False, True, tol=end_tol)
    return xs, np.cumsum(np.concatenate(([0.0], vals)))


def integrate_profile(m: Momentum, start_x: float, direction: int = +1,
                      s_max: float = 1.0, s_min: float = 0.0,
                      samples_per_branch: int = 512, rtol: float = 1e-10) -> Profile:
    """Trace the unit-speed generating curve through (start_x, 0).

    direction is the initial sign of xdot. The flow continues through
    turning points (|K| = 1 with K' != 0), recording them in branch_events,
    and stops when it crosses the momentum's x-domain or reaches s_max
    (s_min < 0 extends the same curve backwards in arclength). Each
    direction is one DOP853 run with relative tolerance rtol and absolute
    tolerance 1e-2 * rtol, sampled samples_per_branch times per monotone
    branch; the backward half joins the forward one at s = 0.
    """
    if samples_per_branch < 2:
        raise ParamOutOfRange(
            f"need at least two samples per branch, got {samples_per_branch!r}")
    atol = 1e-2 * rtol
    if not all(math.isfinite(t) and t > 0.0 for t in (rtol, atol)):
        raise ParamOutOfRange("flow tolerances rtol and 1e-2 * rtol must be finite and "
                              f"positive, got rtol={rtol!r}")
    if math.isnan(s_max) or math.isnan(s_min):
        raise ParamOutOfRange(f"arclength caps must be numbers, got s_max={s_max!r}, "
                              f"s_min={s_min!r}")
    lo, hi = m.domain
    w = hi - lo
    if not (lo - 1e-12 * w <= start_x <= hi + 1e-12 * w):
        raise DomainViolation(f"start_x = {start_x!r} outside domain {m.domain!r}")
    K0 = m.eval(start_x)
    if abs(K0) > 1.0 + 1e-12:
        raise DomainViolation(f"|K(start_x)| = {abs(K0):.6g} > 1: not a unit tangent")
    K0 = min(1.0, max(-1.0, K0))
    phi0 = math.asin(K0) if direction >= 0 else math.pi - math.asin(K0)

    clamp_lo = lo + 1e-12 * w
    clamp_hi = hi - 1e-12 * w

    def rhs(s, y):
        xc = min(max(y[0], clamp_lo), clamp_hi)
        dK = m.deriv(xc)
        if not math.isfinite(dK):
            dK = math.copysign(1e12, dK) if dK != 0 else 0.0
        return (math.cos(y[2]), math.sin(y[2]), dK)

    def ev_turn(s, y):
        return math.cos(y[2])
    ev_turn.terminal = False

    # A turning point exactly on a domain endpoint touches it tangentially;
    # exclude these touches from the terminal exit events by a small margin.
    m_lo = 1e-9 * w if abs(m.gap(lo)) < 1e-9 else 0.0
    m_hi = 1e-9 * w if abs(m.gap(hi)) < 1e-9 else 0.0

    def ev_lo(s, y):
        return y[0] - (lo - m_lo)
    ev_lo.terminal = True
    ev_lo.direction = -1

    def ev_hi(s, y):
        return y[0] - (hi + m_hi)
    ev_hi.terminal = True
    ev_hi.direction = +1

    def trace(s_end: float):
        """(s, y, turns) of the flow from s = 0 towards s_end: the samples
        ordered from s = 0 outwards, and the turning points passed."""
        sol = dop853.solve(rhs, s_end, (start_x, 0.0, phi0), rtol=rtol, atol=atol,
                           max_step=abs(s_end), events=(ev_turn, ev_lo, ev_hi))
        if sol.status == -1:
            raise StepUnderflow(f"profile flow stalled: {sol.message}")
        turns = [float(t) for t in sol.t_events[0] if abs(t) > 1e-12]
        for t in turns:
            xe = float(sol.sol(t)[0])
            dKe = m.deriv(min(max(xe, clamp_lo), clamp_hi))
            if not math.isfinite(dKe) or abs(dKe) < 1e-10:
                raise EventLocatorFailure(
                    f"degenerate turning point at x = {xe:.6g} (K' ~ {dKe:.3g}); "
                    "continuation undefined")
        s_end = float(sol.t[-1])
        turns = sorted((t for t in turns if abs(t) < abs(s_end)), key=abs)
        bounds = [0.0, *turns, s_end]
        grids = [b0 + (b1 - b0) * _clustered(samples_per_branch, i > 0, i < len(turns))
                 for i, (b0, b1) in enumerate(zip(bounds, bounds[1:]))]
        s = np.concatenate([grids[0]] + [g[1:] for g in grids[1:]])  # each turn once
        return s, sol.sol(s), turns

    none = (np.empty(0), np.empty((3, 0)), [])
    s_fwd, y_fwd, turns_fwd = trace(float(s_max)) if s_max != 0.0 else none
    s_bwd, y_bwd, turns_bwd = trace(float(s_min)) if s_min < 0.0 else none
    s = np.concatenate((s_bwd[:0:-1], s_fwd))  # the backward half without its s = 0
    if not len(s):
        raise DomainViolation("empty arclength range")
    x, z, phi = np.concatenate((y_bwd[:, :0:-1], y_fwd), axis=1)
    return Profile(s=s, x=x, z=z, tx=np.cos(phi), tz=np.sin(phi),
                   branch_events=sorted(turns_fwd + turns_bwd))


def _slope(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """dy/ds at every sample of y, given the spacings h = diff(s).

    One-sided at the ends; inside, the three-point stencil
    (h1^2 (y+ - y0) + h2^2 (y0 - y-)) / (h1 h2 (h1 + h2)) with h1, h2 the
    spacings before and after, second-order also where the spacing jumps (as
    at the s = 0 join of a two-sided trace).
    """
    dy = np.diff(y)
    d = np.empty_like(y)
    d[0] = dy[0] / h[0]
    d[-1] = dy[-1] / h[-1]
    h1, h2 = h[:-1], h[1:]
    d[1:-1] = (h1 * h1 * dy[1:] + h2 * h2 * dy[:-1]) / (h1 * h2 * (h1 + h2))
    return d


def momentum_of_profile(profile, z: Sequence[float] | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Measure K = dz/ds along a polyline, with chord length standing in for s.

    Accepts a Profile or two coordinate arrays (x, z). Returns (x, K) with K
    estimated at every input point by :func:`_slope` over the chords. The
    measurement uses coordinate differences only, so it is invariant under
    vertical translation of the polyline.
    """
    if z is None:
        xs = np.asarray(profile.x, dtype=float)
        zs = np.asarray(profile.z, dtype=float)
    else:
        xs = np.asarray(profile, dtype=float)
        zs = np.asarray(z, dtype=float)
    if xs.ndim != 1 or xs.shape != zs.shape or len(xs) < 2:
        raise DegeneratePolyline("need two equally long coordinate arrays")
    chord = np.hypot(np.diff(xs), np.diff(zs))
    scale = max(np.max(np.abs(xs)), np.max(np.abs(zs)), 1.0)
    if np.any(chord <= 1e-15 * scale):
        raise DegeneratePolyline("repeated consecutive points")
    return xs, _slope(zs, chord)


def discrete_curvatures(p: Profile) -> list[CurvatureSample]:
    """Principal curvatures measured from profile samples alone.

    k_m is the turning rate of the unit tangent (:func:`_slope` of its angle
    over arclength) and k_p = tz / x. Samples on the axis have no
    parallel curvature; |x| < 1e-12 raises AxisSingularity. One
    CurvatureSample row per sample, built from the columns by
    ``tuple.__new__`` without a Python call per row.
    """
    if len(p) < 3:
        raise DegeneratePolyline("need at least three samples")
    x = np.asarray(p.x, dtype=float)
    if np.any(np.abs(x) < 1e-12):
        raise AxisSingularity("profile touches the axis; k_p undefined there")
    s = np.asarray(p.s, dtype=float)
    k_m = _slope(np.unwrap(np.arctan2(p.tz, p.tx)), np.diff(s))
    k_p = np.asarray(p.tz, dtype=float) / x
    return list(map(tuple.__new__, repeat(CurvatureSample),
                    zip(x.tolist(), k_m.tolist(), k_p.tolist(),
                        (0.5 * (k_m + k_p)).tolist(), (k_m * k_p).tolist())))


def profile_to_csv(p: Profile) -> str:
    """Serialize a profile: the header ``s,x,z,tx,tz``, then one row per
    sample. Every value has exactly the bytes of ``'%.17g' % v``
    (``_records``): double-double digits for 1e-30 <= |v| < 1e30, with an
    error below 2**-46 of the last digit, and Python's own formatting for a
    value that is non-finite, outside that range or within 1e-6 of a
    rounding tie."""
    return "s,x,z,tx,tz\n" + records("%.17g,%.17g,%.17g,%.17g,%.17g\n",
                                     (p.s, p.x, p.z, p.tx, p.tz))
