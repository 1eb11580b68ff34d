"""Closed-form momenta and generating curves for the named rotational families.

Every entry couples a momentum with, where one exists, an explicit
parametrization or graph of the generating curve, so the generic
quadrature/trace pipeline can be cross-checked against independent closed
forms. The momentum is defined by its formula text alone, the
``momentum_text`` that ``catalog list`` prints: the expression compiler turns
it into K and its symbolic derivative K', array-first (``takes_arrays``),
with the entry's parameters bound as constants. Curves are kept exactly as
their defining formulas state them (including sign representatives);
comparisons modulo the z-translation freedom are the caller's business.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .curvature import classify_mean_inverse
from .errors import ParamOutOfRange, RootBracketFailure, UnknownIdentifier
from .expr import parse_expr
from .momentum import Momentum
from .quadrature import AnchoredAntiderivative, bracketed_root
from .reconstruct import height_displacement

__all__ = [
    "ClosedProfile",
    "CatalogEntry",
    "basic",
    "hopf_kuhnel",
    "elasticoid",
    "pseudolemniscate_modulus",
    "equal_strength",
    "ondualysoid",
    "loopoid",
    "mean_inverse_profile",
    "transonducycloid",
    "build",
    "list_entries",
]


@dataclass(frozen=True)
class ClosedProfile:
    """Explicit generating curve: t -> (x, z) with its exact velocity.

    unit_speed marks parametrizations whose parameter is arclength s, for
    which velocity must be a unit vector.
    """

    param_range: tuple[float, float]
    point: Callable[[float], tuple[float, float]]
    velocity: Callable[[float], tuple[float, float]]
    unit_speed: bool = False
    note: str = ""

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray]:
        pts = [self.point(float(t)) for t in np.asarray(ts, dtype=float)]
        xs = np.array([p[0] for p in pts])
        zs = np.array([p[1] for p in pts])
        return xs, zs


def _momentum(text: str, params: dict[str, float],
              domain: tuple[float, float]) -> Momentum:
    """K compiled from the formula text and K' from its symbolic derivative,
    with params bound as constants."""
    e = parse_expr(text)
    return Momentum(e.as_function(params), e.derivative().as_function(params), domain)


@dataclass(frozen=True)
class CatalogEntry:
    """A family member. Its momentum is compiled from momentum_text over
    domain (both None for a momentum-exempt entry) when the entry is built,
    so a parameter that gives no usable domain fails there."""

    name: str
    params: dict[str, float]
    momentum_text: str | None
    domain: tuple[float, float] | None
    closed_profile: ClosedProfile | None
    provenance: str
    label: str | None = None
    weingarten_q: float | None = None
    momentum: Momentum | None = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "momentum", None if self.momentum_text is None else
                           _momentum(self.momentum_text, self.params, self.domain))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": {k: float(v) for k, v in self.params.items()},
            "provenance": self.provenance,
            "momentum": self.momentum_text,
            "label": self.label,
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


def _pow(base: float, expo: float) -> float:
    try:
        return base ** expo
    except (ZeroDivisionError, OverflowError):
        return math.inf


# ---------------------------------------------------------------- basic zoo

_BASIC_KEYS = {"plane": set(), "cone": {"theta0"}, "sphere": {"R"},
               "torus": {"a", "R"}, "catenoid": {"a"}, "cylinder": {"a"}}


def basic(name: str, **params: float) -> CatalogEntry:
    """The constant-coefficient families: plane, cone(theta0), sphere(R),
    torus(a, R), catenoid(a), cylinder(a)."""
    extra = set(params) - _BASIC_KEYS.get(name, set())
    if extra:
        raise ParamOutOfRange(
            f"{name} does not take parameter(s) {', '.join(sorted(extra))}")
    if name == "plane":
        prof = ClosedProfile((0.0, 5.0), lambda t: (t, 0.0), lambda t: (1.0, 0.0),
                             unit_speed=True, note="horizontal line")
        return CatalogEntry("plane", {}, "0", (0.0, 5.0), prof,
                            "flat disk: zero momentum, horizontal generatrix")
    if name == "cone":
        th = float(params.get("theta0", math.pi / 6))
        _require(0.0 < th < math.pi / 2, f"cone needs 0 < theta0 < pi/2, got {th!r}")
        s0, c0 = math.sin(th), math.cos(th)
        prof = ClosedProfile((0.0, 5.0), lambda t: (c0 * t, s0 * t),
                             lambda t: (c0, s0), unit_speed=True,
                             note="straight line of slope tan(theta0)")
        return CatalogEntry("cone", {"theta0": th}, repr(s0), (0.0, 5.0), prof,
                            "straight generatrix of constant inclination theta0")
    if name == "sphere":
        R = float(params.get("R", 1.0))
        _require(R > 0, f"sphere needs R > 0, got {R!r}")
        prof = ClosedProfile((0.0, math.pi),
                             lambda t: (R * math.sin(t), -R * math.cos(t)),
                             lambda t: (R * math.cos(t), R * math.sin(t)),
                             note="half circle of radius R, south to north pole")
        return CatalogEntry("sphere", {"R": R}, "x/R", (0.0, R), prof,
                            "round sphere of radius R; momentum linear in x",
                            weingarten_q=1.0)
    if name == "torus":
        a = float(params.get("a", 2.0))
        R = float(params.get("R", 1.0))
        _require(R > 0, f"torus needs R > 0, got {R!r}")
        _require(a != 0, "torus needs a nonzero center offset a")
        prof = ClosedProfile((-math.pi, math.pi),
                             lambda t: (a + R * math.sin(t), -R * math.cos(t)),
                             lambda t: (R * math.cos(t), R * math.sin(t)),
                             note="full circle of radius R centered at x = a")
        return CatalogEntry("torus", {"a": a, "R": R}, "(x - a)/R", (a - R, a + R),
                            prof, "circle of radius R revolved about an axis at distance a")
    if name == "catenoid":
        a = float(params.get("a", 1.0))
        _require(a > 0, f"catenoid needs a > 0, got {a!r}")

        def pt(x: float) -> tuple[float, float]:
            return (x, a * math.acosh(max(x / a, 1.0)))

        def vel(x: float) -> tuple[float, float]:
            d = x * x - a * a
            return (1.0, a / math.sqrt(d) if d > 0 else math.inf)

        prof = ClosedProfile((a, 5.0 * a), pt, vel,
                             note="graph x = a*cosh(z/a), upper half")
        return CatalogEntry("catenoid", {"a": a}, "a/x", (a, 5.0 * a), prof,
                            "minimal rotational surface; waist radius a",
                            weingarten_q=-1.0)
    if name == "cylinder":
        a = float(params.get("a", 1.0))
        _require(a > 0, f"cylinder needs a > 0, got {a!r}")
        prof = ClosedProfile((-3.0, 3.0), lambda t: (a, t), lambda t: (0.0, 1.0),
                             unit_speed=True, note="vertical line x = a")
        return CatalogEntry("cylinder", {"a": a}, None, None, prof,
                            "vertical generatrix at constant distance a; "
                            "x is constant so no momentum-as-function-of-x exists",
                            label="momentum-exempt")
    raise UnknownIdentifier(name)


# ----------------------------------------------------------- power momenta

_HK_NAMES = {1.0: "sphere", -1.0: "catenoid", 2.0: "Mylar balloon",
             0.5: "onducycloid", -0.5: "Flamm paraboloid"}


def hopf_kuhnel(q: float, a: float = 1.0) -> CatalogEntry:
    """Power-law momentum K = (x/a)^q, the k_m = q*k_p family.

    The curve is parametrized by x(t) = a*cos(t)^(1/q) with
    z(t) = (a/q) * integral_0^t cos(v)^(1/q) dv. Increasing t traverses it
    with dz/dt of the sign of q; for q < 0 read samples in reverse order to
    measure the momentum representative (x/a)^q.
    """
    q = float(q)
    a = float(a)
    _require(math.isfinite(q) and q != 0, f"hopf_kuhnel needs a finite q != 0, got {q!r}")
    _require(a > 0, f"hopf_kuhnel needs a > 0, got {a!r}")
    inv_q = 1.0 / q
    if q > 0:
        t_cap = math.pi / 2
        dom = (0.0, a)
    else:
        t_cap = math.acos(4.0 ** q)  # caps the momentum window at x = 4a
        dom = (a, 4.0 * a)

    @lru_cache(maxsize=1)
    def anti() -> AnchoredAntiderivative:
        # built on the first point() call, so listing the entry costs nothing
        return AnchoredAntiderivative(lambda v: _pow(math.cos(v), inv_q),
                                      -t_cap, t_cap, anchor=0.0, tol=1e-12)

    def pt(t: float) -> tuple[float, float]:
        return (a * _pow(math.cos(t), inv_q), (a / q) * float(anti()(t)))

    def vel(t: float) -> tuple[float, float]:
        ct, st = math.cos(t), math.sin(t)
        return (-(a / q) * _pow(ct, inv_q - 1.0) * st, (a / q) * _pow(ct, inv_q))

    prof = ClosedProfile((-t_cap, t_cap), pt, vel,
                         note="x = a*cos(t)^(1/q); z by quadrature of cos(t)^(1/q)")
    label = _HK_NAMES.get(q)
    return CatalogEntry("hopf_kuhnel", {"q": q, "a": a}, "(x/a)^q", dom, prof,
                        "power momentum (x/a)^q; meridian curvature is q times "
                        "the parallel curvature everywhere",
                        label=label, weingarten_q=q)


def elasticoid(a: float = 1.0, k: float = 0.0) -> CatalogEntry:
    """Momentum a*x^2 - k: rotated elastic curves (meridian curvature 2*a*x).

    No closed profile; the curve is reconstructed numerically. The regime
    label follows the modulus k: pseudo-sinusoids for -1 < k < 0, the
    lintearia at k = 0, the figure-eight pseudolemniscate at k = k1, the
    convict curve at k = 1 and pseudotrochoids beyond.
    """
    a = float(a)
    k = float(k)
    _require(a > 0, f"elasticoid needs a > 0, got {a!r}")
    _require(k > -1, f"elasticoid needs k > -1, got {k!r}")
    lo = math.sqrt((k - 1.0) / a) if k > 1.0 else 0.0
    hi = math.sqrt((k + 1.0) / a)
    if k < 0:
        label = "pseudo-sinusoid"
    elif k == 0:
        label = "lintearia (Mylar balloon)"
    elif k == 1:
        label = "convict curve"
    elif k > 1:
        label = "pseudotrochoid"
    else:
        k1 = pseudolemniscate_modulus(1.0)
        if abs(k - k1) < 1e-9:
            label = "pseudolemniscate"
        elif k < k1:
            label = "elastic arc (0 < k < k1)"
        else:
            label = "elastic arc (k1 < k < 1)"
    return CatalogEntry("elasticoid", {"a": a, "k": k}, "a*x^2 - k", (lo, hi), None,
                        "elastic curve rotated about its directrix; "
                        "meridian curvature proportional to x", label=label)


@lru_cache(maxsize=1)
def _unit_modulus() -> float:
    def closure(k: float) -> float:
        m = _momentum("x^2 - k", {"k": k}, (0.0, math.sqrt(k + 1.0)))
        return height_displacement(m, 0.0, math.sqrt(k + 1.0), tol=1e-11)

    # the net height over a half oscillation decreases through zero as k grows
    ks = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    vals = [closure(kk) for kk in ks]
    for i in range(len(ks) - 1):
        if vals[i] > 0.0 >= vals[i + 1]:
            return bracketed_root(closure, ks[i], ks[i + 1], xtol=1e-10)
    raise RootBracketFailure("no sign change of the closure integral on (0, 1)")


def pseudolemniscate_modulus(a: float = 1.0) -> float:
    """The modulus k1 at which the elastic arc closes into a figure eight.

    Root of the vanishing net height of the momentum a*x^2 - k over one
    monotone branch x in [0, sqrt((k+1)/a)]. Scale-invariant in a: the
    substitution x -> x*sqrt(a) removes a from the closure integral.
    """
    _require(a > 0, f"pseudolemniscate_modulus needs a > 0, got {a!r}")
    return _unit_modulus()


# ------------------------------------------- exponential meridian curvature

def equal_strength(a: float = 1.0, beta: float = 0.0) -> CatalogEntry:
    """Momentum a*e^x + sin(beta): generalized catenoids of equal strength.

    Unit-speed closed form with u = cos(beta)*s:
        x(s) = ln(cos(beta)^2 / (a*(cosh(u) + sin(beta))))
        z(s) = sin(beta)*s + 2*atan((e^u + sin(beta))/cos(beta))
    """
    a = float(a)
    beta = float(beta)
    _require(a > 0, f"equal_strength needs a > 0, got {a!r}")
    _require(abs(beta) < math.pi / 2,
             f"equal_strength needs |beta| < pi/2, got {beta!r}")
    cb, sb = math.cos(beta), math.sin(beta)

    def pt(s: float) -> tuple[float, float]:
        u = cb * s
        D = math.cosh(u) + sb
        return (math.log(cb * cb / (a * D)),
                sb * s + 2.0 * math.atan((math.exp(u) + sb) / cb))

    def vel(s: float) -> tuple[float, float]:
        u = cb * s
        D = math.cosh(u) + sb
        return (-cb * math.sinh(u) / D, sb + cb * cb / D)

    s_span = 6.0
    x_min = pt(s_span)[0]
    x_max = math.log((1.0 - sb) / a)
    prof = ClosedProfile((-s_span, s_span), pt, vel, unit_speed=True,
                         note="catenary of equal strength at beta = 0")
    return CatalogEntry("equal_strength", {"a": a, "beta": beta, "c": sb},
                        "a*exp(x) + sin(beta)", (x_min, x_max), prof,
                        "exponential meridian curvature a*e^x with momentum "
                        "constant sin(beta) in (-1, 1)")


def ondualysoid(a: float = 1.0) -> CatalogEntry:
    """Momentum a*e^x - 1: the rotated alysoid.

    Unit-speed closed form x(s) = ln(2/(a*(1+s^2))), z(s) = 2*atan(s) - s.
    """
    a = float(a)
    _require(a > 0, f"ondualysoid needs a > 0, got {a!r}")

    def pt(s: float) -> tuple[float, float]:
        return (math.log(2.0 / (a * (1.0 + s * s))), 2.0 * math.atan(s) - s)

    def vel(s: float) -> tuple[float, float]:
        d = 1.0 + s * s
        return (-2.0 * s / d, (1.0 - s * s) / d)

    s_span = 6.0
    prof = ClosedProfile((-s_span, s_span), pt, vel, unit_speed=True,
                         note="alysoid generatrix")
    return CatalogEntry("ondualysoid", {"a": a, "c": -1.0}, "a*exp(x) - 1",
                        (pt(s_span)[0], math.log(2.0 / a)), prof,
                        "exponential meridian curvature a*e^x at the parabolic "
                        "momentum constant c = -1")


def loopoid(a: float = 1.0, eta: float = 1.0) -> CatalogEntry:
    """Momentum a*e^x - cosh(eta), eta > 0: looping generatrices.

    Unit-speed closed form with u = sinh(eta)*s, D = cosh(eta) - sin(u):
        x(s) = ln(sinh(eta)^2 / (a*D))
        z(s) = -cosh(eta)*s - 2*atan((1 - cosh(eta)*tan(u/2))/sinh(eta))
               + 2*pi*floor((u + pi)/(2*pi))
    The floor term selects the continuous branch of the arctangent, which
    as a bare formula jumps by pi at each pole of tan(u/2).
    """
    a = float(a)
    eta = float(eta)
    _require(a > 0, f"loopoid needs a > 0, got {a!r}")
    _require(eta > 0, f"loopoid needs eta > 0, got {eta!r}")
    ch, sh = math.cosh(eta), math.sinh(eta)

    def pt(s: float) -> tuple[float, float]:
        u = sh * s
        D = ch - math.sin(u)
        x = math.log(sh * sh / (a * D))
        z = (-ch * s - 2.0 * math.atan((1.0 - ch * math.tan(0.5 * u)) / sh)
             + 2.0 * math.pi * math.floor((u + math.pi) / (2.0 * math.pi)))
        return (x, z)

    def vel(s: float) -> tuple[float, float]:
        u = sh * s
        D = ch - math.sin(u)
        return (sh * math.cos(u) / D, sh * sh / D - ch)

    prof = ClosedProfile((-6.0, 6.0), pt, vel, unit_speed=True,
                         note="stacked loops along the axis direction")
    if math.isclose(ch, a + 1.0, rel_tol=1e-12):
        label = "cosh(eta) = a + 1"
    elif ch < a + 1.0:
        label = "cosh(eta) < a + 1"
    else:
        label = "cosh(eta) > a + 1"
    return CatalogEntry("loopoid", {"a": a, "eta": eta, "c": -ch}, "a*exp(x) - cosh(eta)",
                        (math.log((ch - 1.0) / a), math.log((ch + 1.0) / a)), prof,
                        "exponential meridian curvature a*e^x with momentum "
                        "constant -cosh(eta) below -1", label=label)


# --------------------------------------------------- mean curvature = mu/x

def mean_inverse_profile(mu: float, c: float) -> CatalogEntry:
    """Momentum 2*mu + c/x (mean curvature mu/x) with its graph closed form.

    Three branches by the sign of 1 - 4*mu^2; the graph is the '+'
    representative of the defining +- pair, anchored as printed (not z=0).
    """
    mu = float(mu)
    c = float(c)
    branch = classify_mean_inverse(mu)
    params: dict[str, float] = {"mu": mu, "c": c}

    if branch.kind == "Parabolic":
        _require(c < 0, f"mu = 1/2 requires c < 0, got c = {c!r}")
        x_lo = -c / 2.0
        x_hi = x_lo + 6.0 * max(1.0, -c)
        rt = math.sqrt(-c)

        def z_of(x: float) -> float:
            return (x + 2.0 * c) * math.sqrt(max(2.0 * x + c, 0.0)) / (3.0 * rt)

        def P(x: float) -> float:
            return -c * (2.0 * x + c)

    elif branch.kind == "Trigonometric":
        th = float(branch.angle)
        params["theta"] = th
        st, ct = math.sin(th), math.cos(th)
        x_lo = c / (1.0 - st) if c > 0 else -c / (1.0 + st)
        x_hi = x_lo + 6.0 * max(1.0, abs(c), x_lo)

        def P(x: float) -> float:
            return ct * ct * x * x - 2.0 * st * c * x - c * c

        def z_of(x: float) -> float:
            if c == 0.0:
                return math.tan(th) * x
            rp = math.sqrt(max(P(x), 0.0))
            return (st / (ct * ct)) * rp + (c / ct ** 3) * math.log(
                2.0 * ct * rp + 2.0 * ct * ct * x - 2.0 * st * c)

    else:  # Hyperbolic
        de = float(branch.angle)
        params["delta"] = de
        ch, sh = math.cosh(de), math.sinh(de)
        _require(c < 0, f"mu > 1/2 requires c < 0, got c = {c!r}")
        x_lo = -c / (1.0 + ch)
        x_hi = c / (1.0 - ch)

        def P(x: float) -> float:
            return -sh * sh * x * x - 2.0 * ch * c * x - c * c

        def z_of(x: float) -> float:
            rp = math.sqrt(max(P(x), 0.0))
            arg = min(1.0, max(-1.0, (sh * sh * x + ch * c) / c))
            return -(ch / (sh * sh)) * rp + (c / sh ** 3) * math.asin(arg)

    def vel(x: float) -> tuple[float, float]:
        p = P(x)
        return (1.0, (2.0 * mu * x + c) / math.sqrt(p) if p > 0 else math.inf)

    prof = ClosedProfile((x_lo, x_hi), lambda x: (x, z_of(x)), vel,
                         note=f"graph branch: {branch.kind}")
    return CatalogEntry("mean_inverse_profile", params, "2*mu + c/x", (x_lo, x_hi), prof,
                        "mean curvature inversely proportional to the distance "
                        "to the axis; branch set by comparing 2*mu with 1",
                        label=branch.kind)


# --------------------------------------------------------- cycloid surface

def transonducycloid(R: float = 1.0, a: float = 0.0) -> CatalogEntry:
    """Cycloid arch generatrix, lifted to start at x = a, revolved about the
    base-parallel axis: x(t) = a + R*(1 - cos t), z(t) = R*(t - sin t - pi),
    momentum sqrt((x - a)/(2R)). For a = 0 the Gauss curvature is 1/(4*R*x).
    """
    R = float(R)
    a = float(a)
    _require(R > 0, f"transonducycloid needs R > 0, got {R!r}")

    def pt(t: float) -> tuple[float, float]:
        return (a + R * (1.0 - math.cos(t)), R * (t - math.sin(t) - math.pi))

    def vel(t: float) -> tuple[float, float]:
        return (R * math.sin(t), R * (1.0 - math.cos(t)))

    prof = ClosedProfile((0.0, 2.0 * math.pi), pt, vel,
                         note="one cycloid arch, cusps at t = 0 and t = 2*pi")
    return CatalogEntry("transonducycloid", {"R": R, "a": a}, "sqrt((x - a)/(2*R))",
                        (a, a + 2.0 * R), prof,
                        "cycloid arch revolved about its base line; "
                        "Gauss curvature decays like 1/x when a = 0",
                        weingarten_q=0.5 if a == 0.0 else None)


# ------------------------------------------------------------- dispatching

_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "plane": lambda **p: basic("plane", **p),
    "cone": lambda **p: basic("cone", **p),
    "sphere": lambda **p: basic("sphere", **p),
    "torus": lambda **p: basic("torus", **p),
    "catenoid": lambda **p: basic("catenoid", **p),
    "cylinder": lambda **p: basic("cylinder", **p),
    "hopf_kuhnel": hopf_kuhnel,
    "elasticoid": elasticoid,
    "equal_strength": equal_strength,
    "ondualysoid": ondualysoid,
    "loopoid": loopoid,
    "mean_inverse_profile": mean_inverse_profile,
    "transonducycloid": transonducycloid,
}


def build(name: str, **params: float) -> CatalogEntry:
    """Construct a catalog entry by name with keyword parameters."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownIdentifier(name) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {name!r}: {exc}") from None


def list_entries() -> list[CatalogEntry]:
    """Representative instances of every family, for `catalog list`."""
    return [
        basic("plane"),
        basic("cone", theta0=math.pi / 6),
        basic("sphere", R=1.0),
        basic("torus", a=2.0, R=1.0),
        basic("catenoid", a=1.0),
        basic("cylinder", a=1.0),
        hopf_kuhnel(2.0, 1.0),
        elasticoid(1.0, 0.0),
        equal_strength(1.0, 0.0),
        ondualysoid(1.0),
        loopoid(1.0, 1.0),
        mean_inverse_profile(0.5, -1.0),
        transonducycloid(1.0, 0.0),
    ]
