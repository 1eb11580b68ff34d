"""Reconstruction of generating curves from a momentum.

Quadrature route: with K the momentum, ds = dx / sqrt(1 - K^2) gives the
arclength between parallels and dz = K dx / sqrt(1 - K^2) the height of the
curve over the x-axis; both integrands blow up like an inverse square root
where |K| reaches 1, which the quadrature layer absorbs. arclength,
height_displacement and graph_height share one guard, _singular_ends, which
flags the endpoints where that happens.

Flow route: the unit-speed system xdot = +-sqrt(1 - K(x)^2), zdot = K(x) is
integrated in its tangent-angle form

    xdot = cos(phi),  zdot = sin(phi),  phidot = K'(x)

which is the same curve (sin(phi) = K(x) is a first integral) but stays
Lipschitz through the turning points K^2 = 1, where the sign of xdot flips.
Turning points are located as transversal zeros of cos(phi) and recorded as
branch events; hitting the declared x-domain transversally stops the flow.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .curvature import CurvatureSample
from .errors import (AxisSingularity, DegeneratePolyline, DomainViolation,
                     EventLocatorFailure, NonIntegrableSingularity,
                     ParamOutOfRange, StepUnderflow)
from .momentum import Momentum
from .quadrature import integrate, sqrt_endpoint_integral

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


def _gap(m: Momentum, x: float) -> float:
    k = m.eval(x)
    return 1.0 - k * k


def _endpoint_singular(m: Momentum, x_end: float, inward: float, width: float) -> bool:
    g = _gap(m, x_end)
    if g > _SINGULAR_GAP:
        return False
    # estimate the order of the zero of 1 - K^2; a double zero is not integrable
    eps = 1e-6 * width
    g1 = _gap(m, x_end + inward * eps) - max(g, 0.0)
    g2 = _gap(m, x_end + inward * 2 * eps) - max(g, 0.0)
    if g1 <= 0.0 or g2 <= 0.0:
        raise DomainViolation(f"|K| >= 1 just inside the endpoint x = {x_end:.6g}")
    order = math.log2(g2 / g1)
    if order > 1.7:
        raise NonIntegrableSingularity(
            f"1 - K^2 vanishes to order ~{order:.2f} at x = {x_end:.6g}; "
            "the arclength integral diverges")
    return True


def _singular_ends(m: Momentum, a: float, b: float) -> tuple[bool, bool]:
    """Guard of the quadrature routes over [a, b], a < b: DomainViolation
    where |K| > 1 inside, then one flag per endpoint where 1 - K^2 has a
    simple zero (a zero of higher order raises NonIntegrableSingularity)."""
    for x in np.linspace(a, b, 257)[1:-1]:
        if _gap(m, float(x)) < -1e-12:
            raise DomainViolation(
                f"|K| > 1 at x = {float(x):.6g}; no curve spans [{a:.6g}, {b:.6g}]")
    w = b - a
    return _endpoint_singular(m, a, +1.0, w), _endpoint_singular(m, b, -1.0, w)


def _ds_integrand(m: Momentum):
    def f(x: float) -> float:
        g = _gap(m, x)
        return 1.0 / math.sqrt(g) if g > 0.0 else math.inf
    return f


def _dz_integrand(m: Momentum):
    def f(x: float) -> float:
        g = _gap(m, x)
        return m.eval(x) / math.sqrt(g) if g > 0.0 else math.inf
    return f


def _signed_integral(m: Momentum, integrand, x0: float, x1: float, tol: float) -> float:
    """int_x0^x1 of integrand(m), negated when x1 < x0."""
    if x0 == x1:
        return 0.0
    a, b = (x1, x0) if x1 < x0 else (x0, x1)
    sing_lo, sing_hi = _singular_ends(m, a, b)
    val = sqrt_endpoint_integral(integrand(m), a, b, sing_lo, sing_hi, tol=tol)
    return -val if x1 < x0 else val


def arclength(m: Momentum, x0: float, x1: float, tol: float = 5e-11) -> float:
    """Signed arclength of the curve between the parallels x0 and x1.

    Endpoints may sit exactly on |K| = 1 (vertical tangent); such simple
    turning points are integrable and handled at full precision.
    """
    return _signed_integral(m, _ds_integrand, x0, x1, tol)


def height_displacement(m: Momentum, x0: float, x1: float, tol: float = 5e-11) -> float:
    """z(x1) - z(x0) along the branch where x is monotone increasing."""
    return _signed_integral(m, _dz_integrand, x0, x1, tol)


def graph_height(m: Momentum, x0: float, x1: float, n: int = 513,
                 tol: float = 1e-11, spacing: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """Cumulative height z(x) over [x0, x1], anchored z(x0) = 0.

    Returns (x_samples, z_samples). With spacing='auto' the grid clusters
    toward endpoints where |K| -> 1; 'uniform' forces an equispaced grid.
    End panels the guard flags take the square-root substitution, every
    other panel the adaptive Gauss-Legendre engine of the quadrature layer.
    """
    if not x1 > x0:
        raise DomainViolation(f"need x1 > x0, got [{x0!r}, {x1!r}]")
    if n < 2:
        raise DomainViolation("need at least two samples")
    sing_lo, sing_hi = _singular_ends(m, x0, x1)

    u = np.linspace(0.0, 1.0, n)
    if spacing == "uniform":
        ws = u
    elif sing_lo and sing_hi:
        ws = 0.5 * (1.0 - np.cos(math.pi * u))
    elif sing_lo:
        ws = 1.0 - np.cos(0.5 * math.pi * u)
    elif sing_hi:
        ws = np.sin(0.5 * math.pi * u)
    else:
        ws = u
    xs = x0 + (x1 - x0) * ws
    xs[0], xs[-1] = x0, x1

    f = _dz_integrand(m)
    panel_tol = max(tol / (4.0 * math.sqrt(n)), 1e-13)
    end_tol = max(0.25 * tol, 2e-12)
    zs = np.zeros(n)
    for i in range(n - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        if i == 0 and sing_lo:
            val = sqrt_endpoint_integral(f, a, b, True, False, tol=end_tol)
        elif i == n - 2 and sing_hi:
            val = sqrt_endpoint_integral(f, a, b, False, True, tol=end_tol)
        else:
            val = integrate(f, a, b, tol=panel_tol)
        zs[i + 1] = zs[i] + val
    return xs, zs


def integrate_profile(m: Momentum, start_x: float, direction: int = +1,
                      s_max: float = 1.0, s_min: float = 0.0,
                      samples_per_branch: int = 512,
                      rtol: float = 1e-10, atol: float = 1e-12) -> Profile:
    """Trace the unit-speed generating curve through (start_x, 0).

    direction is the initial sign of xdot. The flow continues through
    turning points (|K| = 1 with K' != 0), recording them in branch_events,
    and stops when it crosses the momentum's x-domain or reaches s_max
    (s_min < 0 extends the same curve backwards in arclength).
    """
    if samples_per_branch < 2:
        raise ParamOutOfRange(
            f"need at least two samples per branch, got {samples_per_branch!r}")
    if not all(math.isfinite(t) and t > 0.0 for t in (rtol, atol)):
        raise ParamOutOfRange(
            f"flow tolerances must be finite and positive, got rtol={rtol!r}, atol={atol!r}")
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
    m_lo = 1e-9 * w if abs(_gap(m, lo)) < 1e-9 else 0.0
    m_hi = 1e-9 * w if abs(_gap(m, hi)) < 1e-9 else 0.0

    def ev_lo(s, y):
        return y[0] - (lo - m_lo)
    ev_lo.terminal = True
    ev_lo.direction = -1

    def ev_hi(s, y):
        return y[0] - (hi + m_hi)
    ev_hi.terminal = True
    ev_hi.direction = +1

    def run(s_end: float):
        if s_end == 0.0:
            return None
        sol = solve_ivp(rhs, (0.0, s_end), (start_x, 0.0, phi0), method="DOP853",
                        dense_output=True, rtol=rtol, atol=atol,
                        events=(ev_turn, ev_lo, ev_hi), max_step=abs(s_end))
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
        return sol, sorted(turns, key=abs)

    def sample_half(sol, turns, s_end: float):
        bounds = [0.0] + turns + [s_end]
        grids = []
        for bi in range(len(bounds) - 1):
            b0, b1 = bounds[bi], bounds[bi + 1]
            ev0 = bi > 0
            ev1 = bi < len(bounds) - 2
            u = np.linspace(0.0, 1.0, samples_per_branch)
            if ev0 and ev1:
                t = 0.5 * (1.0 - np.cos(math.pi * u))
            elif ev0:
                t = 1.0 - np.cos(0.5 * math.pi * u)
            elif ev1:
                t = np.sin(0.5 * math.pi * u)
            else:
                t = u
            g = b0 + (b1 - b0) * t
            if bi > 0:
                g = g[1:]
            grids.append(g)
        svals = np.concatenate(grids)
        y = sol.sol(svals)
        return svals, y

    parts = []
    events_all: list[float] = []

    fwd = run(float(s_max))
    if fwd is not None:
        sol, turns = fwd
        s_end = float(sol.t[-1])
        turns = [t for t in turns if t < s_end]
        svals, y = sample_half(sol, sorted(turns), s_end)
        parts.append((svals, y))
        events_all.extend(turns)

    if s_min < 0.0:
        bwd = run(float(s_min))
        if bwd is not None:
            sol, turns = bwd
            s_end = float(sol.t[-1])
            turns = [t for t in turns if t > s_end]
            svals, y = sample_half(sol, sorted(turns, reverse=True), s_end)
            order = np.argsort(svals)
            svals, y = svals[order], y[:, order]
            svals, y = svals[:-1], y[:, :-1]  # drop duplicate s = 0
            parts.insert(0, (svals, y))
            events_all.extend(turns)

    if not parts:
        raise DomainViolation("empty arclength range")
    s = np.concatenate([p[0] for p in parts])
    ys = np.concatenate([p[1] for p in parts], axis=1)
    phi = ys[2]
    return Profile(s=s, x=ys[0], z=ys[1], tx=np.cos(phi), tz=np.sin(phi),
                   branch_events=sorted(events_all))


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
    parallel curvature; |x| < 1e-12 raises AxisSingularity.
    """
    if len(p) < 3:
        raise DegeneratePolyline("need at least three samples")
    x = np.asarray(p.x, dtype=float)
    if np.any(np.abs(x) < 1e-12):
        raise AxisSingularity("profile touches the axis; k_p undefined there")
    s = np.asarray(p.s, dtype=float)
    k_m = _slope(np.unwrap(np.arctan2(p.tz, p.tx)), np.diff(s))
    k_p = np.asarray(p.tz, dtype=float) / x
    return [CurvatureSample.from_principal(float(x[i]), float(k_m[i]), float(k_p[i]))
            for i in range(len(x))]


def profile_to_csv(p: Profile) -> str:
    """Serialize a profile with a fixed header and 17 significant digits."""
    buf = io.StringIO()
    buf.write("s,x,z,tx,tz\n")
    for i in range(len(p)):
        buf.write(f"{p.s[i]:.17g},{p.x[i]:.17g},{p.z[i]:.17g},"
                  f"{p.tx[i]:.17g},{p.tz[i]:.17g}\n")
    return buf.getvalue()
