"""Reconstruction of generating curves from a momentum.

Quadrature route: with K the momentum, ds = dx / sqrt(1 - K^2) gives the
arclength between parallels and dz = K dx / sqrt(1 - K^2) the height of the
curve over the x-axis; both integrands blow up like an inverse square root
where |K| reaches 1, which the quadrature layer's endpoint substitution
absorbs. arclength and height_displacement share one guard, _singular_ends,
which flags the endpoints where that happens; graph_height runs its scan
for |K| > 1 inside, then reads its heights off the trace's band below.

Trace: between two turning points the curve is a graph over x, so
integrate_profile takes each monotone branch as the two integrals above
over the admissible band that holds its start. :class:`_Band` bisects both
integrands in one run of the quadrature engine, in the variable of the same
cosine map, onto 16-node Gauss-Legendre panels; every crossing reuses their
length and height, and tz = K comes from K at the samples (K' is unused).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .curvature import CurvatureSample
from .errors import (AxisSingularity, DegeneratePolyline, DomainViolation,
                     EventLocatorFailure, NonIntegrableSingularity, ParamOutOfRange)
from .momentum import Momentum, admissible_intervals
from .quadrature import (_bisect, _clustered, _clustered_slope, _end_model, _unclustered,
                         array_callable, sqrt_endpoint_integral, takes_arrays)

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
_NEAR_TURN = 1e-6  # below this 1 - K^2, rounding in K spoils sqrt(1 - K^2) as |tx|


@dataclass(frozen=True)
class Profile:
    """Unit-speed samples (s, x, z, tx, tz) of a generating curve.

    From :func:`integrate_profile`, the five are independent contiguous
    arrays that own their memory and share none, so keeping one column
    keeps only its own samples.

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
    endpoint where 1 - K^2 vanishes. The end model refuses a flagged end
    where the integrand grows faster than an inverse square root, as it does
    where the zero is not simple (NonIntegrableSingularity)."""
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


def _finite_range(x0: float, x1: float) -> None:
    """ParamOutOfRange unless both ends of a quadrature route are finite."""
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ParamOutOfRange(f"the ends of [{x0!r}, {x1!r}] must be finite")


def _signed_integral(m: Momentum, height: bool, x0: float, x1: float, tol: float) -> float:
    """int_x0^x1 of _integrand(m.eval, height), negated when x1 < x0."""
    _finite_range(x0, x1)
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


def graph_height(m: Momentum, x0: float, x1: float, n: int = 513,
                 tol: float = 1e-11) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative height z(x) over [x0, x1], anchored z(x0) = 0.

    Returns (x_samples, z_samples) on n points, equispaced in the variable u
    of the :class:`_Band` over [x0, x1]: x is linear in u unless an end is
    singular (|K| -> 1 there), where the grid clusters like a cosine toward
    it. The band integrates dz/du once, on 16-node Gauss-Legendre panels
    bisected to tol, and each height is read off its panel's interpolant.
    DomainViolation where |K| > 1 inside the range; EventLocatorFailure
    where 1 - K^2 has no simple zero at a singular end.
    """
    _finite_range(x0, x1)
    if not x1 > x0:
        raise DomainViolation(f"need x1 > x0, got [{x0!r}, {x1!r}]")
    if n < 2:
        raise DomainViolation("need at least two samples")
    _singular_ends(m, array_callable(m.eval, *m.domain), x0, x1)  # the scan inside
    band = _Band(m, x0, x1, x0, tol)
    us = np.linspace(0.0, 1.0, n)
    xs = _clustered(us, x0, x1, *band.turn)[0]
    xs[0], xs[-1] = x0, x1
    return xs, band.height(us)


# The trace's panels: 16 Gauss-Legendre nodes on [-1, 1], the matrices that
# take an integrand's values there to the Legendre coefficients of its
# interpolant (_COEF, with a 0 for P_16) and of the interpolant's
# antiderivative from -1 (_ANTI), and the grid of a panel's first guesses.
_N = 16
_TAU, _W = np.polynomial.legendre.leggauss(_N)


def _legendre(t: np.ndarray) -> np.ndarray:
    """P_0, ..., P_N at the points t, one row each."""
    P = np.empty((_N + 1, len(t)))
    P[0], P[1] = 1.0, t
    for n in range(1, _N):  # (n + 1) P_(n+1) = (2n + 1) t P_n - n P_(n-1)
        np.multiply(t, P[n], out=P[n + 1])
        P[n + 1] -= P[n - 1]
        P[n + 1] *= n / (n + 1.0)
        P[n + 1] += t * P[n]
    return P


_COEF = (np.arange(_N) + 0.5) * _W[:, None] * _legendre(_TAU)[:_N].T
_ANTI = _COEF @ np.polynomial.legendre.legint(np.eye(_N), lbnd=-1.0, axis=1)
_COEF = np.pad(_COEF, ((0, 0), (0, 1)))
_GRID = -np.cos(np.linspace(0.0, math.pi, 65))
_GRID_P = _legendre(_GRID)


def _degenerate(x: float) -> EventLocatorFailure:
    return EventLocatorFailure(f"degenerate turning point at x = {x:.6g}: 1 - K^2 has no "
                               "simple zero there, so the branch length diverges")


class _Band:
    """The admissible band [a, b] of a trace, integrated once.

    u in [0, 1] maps onto the band by :func:`_clustered`, whose analytic
    dx/du (:func:`_clustered_slope`) makes ds/du = (dx/du) / sqrt(1 - K^2)
    smooth at a turning end; within 4d of one, 1 / sqrt(1 - K^2) is the
    model of :func:`_end_model`. One run of the engine's bisection on the two
    rows (ds/du, dz/du = K ds/du), to ``tol`` in both from knots at 0, 1 and
    the u of x0, fixes the panels. Their 16 nodes give S and Z, the arclength
    and height from a, at each knot and the Legendre interpolants that
    height and locate read (:meth:`_panels`). A node where |K| reaches 1
    inside the band is a degenerate turning point the admissible scan missed.
    """

    def __init__(self, m: Momentum, a: float, b: float, x0: float, tol: float):
        self.a, self.b, self.x0 = a, b, x0
        self.K = array_callable(m.eval, *m.domain)
        self.turn = (_endpoint_singular(m, a, +1.0, b - a),
                     _endpoint_singular(m, b, -1.0, b - a))
        f = _integrand(self.K, height=False)
        self.models = [None, None]
        for i, end, sign in ((0, a, 1.0), (1, b, -1.0)):
            try:
                self.models[i] = _end_model(f, a, b, end, sign)[:2] if self.turn[i] else None
            except NonIntegrableSingularity:
                raise _degenerate(end) from None
        u0 = _unclustered((x0 - a) / (b - a), (b - x0) / (b - a), *self.turn)
        self.knots = knots = _bisect(
            self._rates, [0.0, u0, 1.0] if 0.0 < u0 < 1.0 else [0.0, 1.0], tol)[0]
        self.mid, self.half = 0.5 * (knots[1:] + knots[:-1]), 0.5 * np.diff(knots)
        fs, fz = (r.reshape(-1, _N) for r in
                  self._rates((self.mid[:, None] + self.half[:, None] * _TAU).ravel()))
        self.Sk = np.concatenate(([0.0], np.cumsum(self.half * (fs @ _W))))
        self.Zk = np.concatenate(([0.0], np.cumsum(self.half * (fz @ _W))))
        self.S, self.Z = float(self.Sk[-1]), float(self.Zk[-1])
        self.q0, self.z0 = (float(v[np.searchsorted(knots, u0)]) for v in (self.Sk, self.Zk))
        # per panel, the coefficients of S, ds/du and Z
        self.coef = np.stack((fs @ _ANTI, fs @ _COEF, fz @ _ANTI), axis=1)

    @cached_property
    def table(self) -> tuple[np.ndarray, ...]:
        """(S, u, ds/du) on _GRID in every panel, through which locate takes
        its first guess; built on the first locate."""
        s_grid, ds_grid = (self.coef[:, :2] @ _GRID_P).transpose(1, 0, 2)
        return tuple(np.append(g[:, :-1], g[-1, -1]) for g in (
            self.Sk[:-1, None] + self.half[:, None] * s_grid,
            self.mid[:, None] + self.half[:, None] * _GRID, ds_grid))

    def _rates(self, u):
        """(ds/du, dz/du) at u, with 1 / sqrt(1 - K^2) by the end models
        within 4d of a turning end."""
        x, dlo, dhi = _clustered(u, self.a, self.b, *self.turn)
        dxdu = _clustered_slope(u, self.a, self.b, *self.turn)
        k = self.K(x)
        g = 1.0 - k * k
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(g > 0.0, 1.0 / np.sqrt(g), np.inf)
        for model, t in zip(self.models, (dlo, dhi)):
            if model is not None and np.any(t < model[0]):
                f[t < model[0]] = model[1](t[t < model[0]])
        if not np.all(np.isfinite(f)):  # |K| reaches 1 inside the band
            raise _degenerate(float(x[np.argmin(np.isfinite(f))]))
        return dxdu * f, k * dxdu * f

    def _panels(self, coef: np.ndarray, u: np.ndarray, key: np.ndarray, edges: np.ndarray):
        """Each point's panel p (where key[i] falls between edges[p] and
        edges[p + 1], key ascending), its tau in [-1, 1] and coef[p] @ P(tau),
        a block per panel, for coef a slice of self.coef."""
        cuts = np.searchsorted(key, edges)
        cuts[0], cuts[-1] = 0, len(key)
        p = np.repeat(np.arange(len(self.mid)), np.diff(cuts))
        tau = np.clip((u - self.mid[p]) / self.half[p], -1.0, 1.0)
        P = _legendre(tau)
        vals = np.empty(coef.shape[1:-1] + u.shape)
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            vals[..., a:b] = coef[i] @ P[:, a:b]
        return p, tau, vals

    def height(self, u: np.ndarray) -> np.ndarray:
        """Z from a at the ascending u of [0, 1], off the panels' interpolants
        of dz/du (its row alone: a vector product rounds apart from a row of
        a matrix product); 0 and Z exactly at the band's ends."""
        p, _, z = self._panels(self.coef[:, 2], u, u, self.knots)
        z = self.Zk[p] + self.half[p] * z
        z[u <= 0.0], z[u >= 1.0] = 0.0, self.Z
        return z

    def locate(self, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """Arrays x, Z, |dx/ds| and the rest of q that Z leaves to dz = K ds
        where the arclength from a is q, four of their own in q's order: u
        cubic Hermite on _GRID, then one Newton step on the panel's
        antiderivative."""
        order = np.argsort(q, kind="stable")
        qs = q[order]
        S, u, F = self.table
        i = np.clip(np.searchsorted(S, qs, side="right") - 1, 0, len(S) - 2)
        dS = S[i + 1] - S[i]
        t = (qs - S[i]) / dS
        u = (u[i] + t * t * (3.0 - 2.0 * t) * (u[i + 1] - u[i])
             + t * (1.0 - t) * dS * ((1.0 - t) / F[i] - t / F[i + 1]))
        p, tau, (s, f, z) = self._panels(self.coef, u, qs, self.Sk)
        h = self.half[p]
        rest = qs - self.Sk[p] - h * s
        u = self.mid[p] + h * np.clip(tau + rest / (h * f), -1.0, 1.0)
        x = _clustered(u, self.a, self.b, *self.turn)[0]
        dxdu = _clustered_slope(u, self.a, self.b, *self.turn)
        z = self.Zk[p] + h * z
        for end, xe, ze in ((qs <= 0.0, self.a, 0.0), (qs >= self.S, self.b, self.Z)):
            x[end], z[end], rest[end] = xe, ze, 0.0  # the band's ends exactly
        out = tuple(np.empty(len(qs)) for _ in range(4))
        for o, v in zip(out, (x, z, dxdu / f, rest)):
            o[order] = v
        return out


def _trace(band: _Band, e: int, cap: float, n: int):
    """One direction of the trace from x0, e the initial direction of x and
    cap > 0 the arclength allowed: arrays sigma, x, z, tx, tz (sigma and z
    from x0, tx = dx/dsigma) and the turning points passed, in sigma. In the
    unfolded arclength p = q0 + e sigma the band's ends are the multiples of
    S, a at the even ones; q is p folded into [0, S], and each crossing adds
    the band's height Z. It stops at cap or at an end that is no turn."""
    S, (lo, hi), p0 = band.S, band.turn, band.q0
    k, bounds = (1 if e > 0 else 0), [p0]
    while True:  # over the ends k S ahead, from the first end of [0, S] met
        dist = e * (k * S - p0)
        if dist >= cap or not (hi if k % 2 else lo):
            bounds.append(p0 + e * cap if dist >= cap else k * S)
            break
        if dist > 0.0:
            bounds.append(k * S)
        k += e
    p, k = [np.array([p0])], [np.zeros(1)]  # the start, in [0, S]
    for i, (b0, b1) in enumerate(zip(bounds, bounds[1:])):
        if b1 != b0:  # a branch: sigma clustered toward its turning points
            seg = _clustered(np.linspace(0.0, 1.0, n), b0, b1, i > 0, i < len(bounds) - 2)[0]
            seg[-1] = b1
            p.append(seg[1:])
            k.append(np.full(n - 1, math.floor(0.5 * (b0 + b1) / S)))
    p, k = np.concatenate(p), np.concatenate(k)
    odd = k % 2 == 1
    r = p - k * S
    x, zq, slope, rest = band.locate(np.clip(np.where(odd, S - r, r), 0.0, S))
    x[0], zq[0], rest[0] = band.x0, band.z0, 0.0
    tz = np.array(band.K(x), dtype=float)  # a column of its own, whatever eval returns
    zq += tz * rest
    g = 1.0 - tz * tz
    tx = np.where(odd, -e, e) * np.where(g < _NEAR_TURN, slope, np.sqrt(np.maximum(g, 0.0)))
    z = e * (k * band.Z + np.where(odd, band.Z - zq, zq) - band.z0)
    return (np.abs(p - p0), x, z, tx, tz), [e * (b - p0) for b in bounds[1:-1]]


def integrate_profile(m: Momentum, start_x: float, direction: int = +1,
                      s_max: float = 1.0, s_min: float = 0.0,
                      samples_per_branch: int = 512, rtol: float = 1e-10) -> Profile:
    """Trace the unit-speed generating curve through (start_x, 0).

    direction is the initial sign of dx/ds. The curve stays in the band of
    :func:`admissible_intervals` that holds start_x (of two, the one that
    direction points into), a graph over x between its ends: an end where
    1 - K^2 vanishes (to 1e-10) is a turning point, which the trace passes
    and records in branch_events, and any other end is a domain exit, where
    it stops. It also stops at s_max and, backwards in arclength, at s_min.

    Each monotone branch is the two quadratures s = int dx / sqrt(1 - K^2)
    and z = int K dx / sqrt(1 - K^2) of :class:`_Band`, which integrates the
    band once to rtol times its width; every crossing reuses its length and
    height. Samples sit samples_per_branch per branch, clustered like a
    cosine toward turning points, with tz = K and tx = +-sqrt(1 - K^2) from
    K at the sample (near a turning point, the branch's dx/ds). K' is never
    needed. The profile's five columns are independent contiguous arrays
    that share no memory, with one another or with what m.eval returned.
    ParamOutOfRange where s_max < 0 or s_min > 0;
    EventLocatorFailure at a degenerate turning point (K' = 0 at |K| = 1),
    where the branch length diverges.
    """
    if samples_per_branch < 2:
        raise ParamOutOfRange(
            f"need at least two samples per branch, got {samples_per_branch!r}")
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ParamOutOfRange(f"trace tolerances: rtol must be finite and positive, "
                              f"got rtol={rtol!r}")
    if not (math.isfinite(s_max) and math.isfinite(s_min) and s_min <= 0.0 <= s_max
            and s_min < s_max):
        raise ParamOutOfRange("arclength caps must be finite with s_min <= 0 <= s_max, "
                              f"not both 0, got s_max={s_max!r}, s_min={s_min!r}")
    e = 1 if direction >= 0 else -1
    tol = 1e-12 * m.width
    holding = [(a, b) for a, b in admissible_intervals(m) if a - tol <= start_x <= b + tol]
    if not holding:
        raise DomainViolation(f"start_x = {start_x!r} lies in no admissible band (|K| < 1) "
                              f"of the domain {m.domain!r}")
    a, b = next((ab for ab in holding if (start_x < ab[1] if e > 0 else start_x > ab[0])),
                holding[0])
    band = _Band(m, a, b, min(b, max(a, float(start_x))), rtol * (b - a))

    cols, turns = None, []
    if s_min < 0.0:  # backwards in s, z and tx; + 0.0 makes s = -0.0 at the start 0.0
        r, t = _trace(band, -e, -s_min, samples_per_branch)
        cols = [c[::-1] * sign + 0.0 for c, sign in zip(r, (-1.0, 1.0, -1.0, -1.0, 1.0))]
        turns = [-v for v in t[::-1]]
    if s_max > 0.0:
        r, t = _trace(band, e, s_max, samples_per_branch)
        # the start once, where both directions hold it
        cols = r if cols is None else [np.concatenate((b, c[1:])) for b, c in zip(cols, r)]
        turns += t
    return Profile(*cols, branch_events=turns)


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
    from ._records import records
    return records("%.17g,%.17g,%.17g,%.17g,%.17g\n", (p.s, p.x, p.z, p.tx, p.tz),
                   head="s,x,z,tx,tz\n")
