import io
import math
import warnings

import numpy as np
import pytest

from conftest import (assert_close, catenoid_momentum, sphere_momentum,
                      unduloid_momentum, unit_speed_error)
from revolve import catalog
from revolve.errors import (AxisSingularity, DegeneratePolyline, DomainViolation,
                            EventLocatorFailure, NonIntegrableSingularity,
                            NumericalError, ParamOutOfRange, UnknownIdentifier)
from revolve.momentum import Momentum, momentum_from_kp, momentum_from_mean
from revolve.reconstruct import (Profile, arclength, discrete_curvatures,
                                 graph_height, height_displacement,
                                 integrate_profile, momentum_of_profile,
                                 profile_to_csv)

ARCCOSH_2 = 1.3169578969248166  # z-height of the unit catenoid at x = 2


def test_arclength_catenoid():
    # s(x) = sqrt(x^2 - 1) measured from the waist: s(2) - s(1) = sqrt(3)
    m = catenoid_momentum()
    assert_close(arclength(m, 1.0, 2.0), math.sqrt(3.0), 1e-10, "catenoid arc")


def test_arclength_sphere_and_signs():
    m = sphere_momentum()
    # s = asin(x) on the unit sphere
    assert_close(arclength(m, 0.0, 0.5), math.pi / 6.0, 1e-11, "sphere arc")
    assert_close(arclength(m, 0.5, 0.0), -math.pi / 6.0, 1e-11, "signed")


def test_arclength_additive():
    m = catenoid_momentum()
    whole = arclength(m, 1.0, 3.5)
    split = arclength(m, 1.0, 1.7) + arclength(m, 1.7, 3.5)
    assert_close(split, whole, 1e-10, "additivity")


def test_height_displacement_catenoid():
    m = catenoid_momentum()
    # |z(2) - z(1)| = arccosh(2); K < 0 makes the displacement negative
    assert_close(height_displacement(m, 1.0, 2.0), -ARCCOSH_2, 1e-10, "height")


def test_graph_height_matches_closed_form():
    m = catenoid_momentum()
    xs, zs = graph_height(m, 1.0, 4.0, n=257)
    want = -(np.arccosh(xs) - np.arccosh(xs[0]))
    assert np.max(np.abs(zs - want)) < 5e-11
    assert xs[0] == 1.0 and xs[-1] == 4.0


def test_graph_height_equispaced_without_singular_end():
    m = catenoid_momentum()  # |K| < 1 on [1.5, 3]
    xs, _ = graph_height(m, 1.5, 3.0, n=33)
    steps = np.diff(xs)
    assert np.max(np.abs(steps - steps[0])) < 1e-12


def test_domain_violation_outside_band():
    m = Momentum(eval=lambda x: x, deriv=lambda x: 1.0, domain=(0.0, 2.0))
    with pytest.raises(DomainViolation):
        arclength(m, 0.5, 1.5)  # |K| > 1 beyond x = 1


def test_non_integrable_singularity_detected():
    # gap 1 - K^2 ~ (hi - x)^2 at the right end: ds integrand ~ 1/(hi - x)
    m = Momentum(eval=lambda x: math.sqrt(max(0.0, 1.0 - (1.0 - x) ** 2)),
                 deriv=lambda x: (1.0 - x) / math.sqrt(max(1e-300, 1.0 - (1.0 - x) ** 2)),
                 domain=(0.1, 1.0))
    with pytest.raises(NonIntegrableSingularity):
        arclength(m, 0.2, 1.0)


@pytest.mark.parametrize("x0", [0.0, 0.3, 0.7, 0.99])
def test_quadrature_routes_up_to_an_upper_turning_point(x0):
    # the unit sphere K = x turns at x = 1: s = asin(x), z = -sqrt(1 - x^2)
    m = sphere_momentum()
    assert abs(arclength(m, x0, 1.0) - (0.5 * math.pi - math.asin(x0))) <= 1e-12
    assert abs(height_displacement(m, x0, 1.0) - math.sqrt(1.0 - x0 * x0)) <= 1e-12
    xs, zs = graph_height(m, x0, 1.0)
    assert xs[-1] == 1.0
    want = math.sqrt(1.0 - x0 * x0) - np.sqrt(1.0 - xs * xs)
    assert np.max(np.abs(zs - want)) <= 1e-12


@pytest.mark.parametrize("n", [257, 2049, 16385])
def test_quadrature_routes_between_the_turning_points_of_an_unduloid(n):
    # H = 1 with K = x + 0.12/x from the antiderivative cache: 1 - K^2 is
    # rounding noise within about 1e-15 of each end; the floats nearest the
    # turning points (1 -+ sqrt(0.52))/2, and the 40-digit height between them
    m = momentum_from_mean(lambda x: 1.0, 0.12, (0.13944487245360107, 0.860555127546399),
                           anchor=0.0)
    height = 1.3405053876890782479
    xs, zs = graph_height(m, *m.domain, n=n)
    assert abs(zs[-1] - height) <= 1e-11
    assert abs(height_displacement(m, *m.domain) - height) <= 5e-11
    assert abs(arclength(m, *m.domain) - 0.5 * math.pi) <= 5e-11


def test_momentum_at_one_just_inside_the_endpoint():
    # |K| = 1 on the whole range: 1 - K^2 vanishes at the end and stays 0
    m = Momentum(eval=lambda x: 1.0, deriv=lambda x: 0.0, domain=(0.0, 1.0))
    for route in (arclength, height_displacement, graph_height):
        with pytest.raises(DomainViolation, match="just inside the endpoint"):
            route(m, 0.2, 1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: integrate_profile(sphere_momentum(), start_x=1.5), DomainViolation),
    (lambda: integrate_profile(Momentum(lambda x: 2.0 * x, lambda x: 2.0, (0.0, 1.0)),
                               start_x=0.75), DomainViolation),
    (lambda: graph_height(sphere_momentum(), 0.5, 0.5), DomainViolation),
    (lambda: graph_height(sphere_momentum(), 0.2, 0.5, n=1), DomainViolation),
    (lambda: discrete_curvatures(Profile(*np.ones((5, 2)))), DegeneratePolyline),
    (lambda: discrete_curvatures(Profile(s=np.arange(3.0), x=np.array([0.0, 1.0, 2.0]),
                                         z=np.zeros(3), tx=np.ones(3), tz=np.zeros(3))),
     AxisSingularity),
    (lambda: catalog.build("spheroid"), UnknownIdentifier),
    (lambda: catalog.build("sphere", radius=1.0), ParamOutOfRange),
], ids=["start outside the domain", "|K(start)| > 1", "x1 <= x0", "n < 2",
        "two samples", "on the axis", "unknown entry", "bad keyword"])
def test_library_raises_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_kp_numeric_derivative_on_arrays_is_per_point():
    # without p_deriv, K' = p + x p' by finite differences, point by point
    m = momentum_from_kp(lambda x: 1.0 / x ** 2, (1.0, 3.0))
    xs = np.linspace(1.0, 3.0, 9)
    assert m.deriv(xs).tolist() == [m.deriv(x) for x in xs.tolist()]


def test_integrate_profile_basic_catenoid():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=1.0, s_max=3.0, samples_per_branch=256)
    assert unit_speed_error(p) < 1e-9
    assert len(p.branch_events) == 0
    # x(s) = sqrt(1 + s^2) measured from the waist
    assert np.max(np.abs(p.x - np.sqrt(1.0 + p.s ** 2))) < 1e-9
    assert p.s[0] == 0.0


def test_integrate_profile_turning_point():
    # Mylar-balloon momentum K = x^2: turning at x = 1, then x decreases
    m = Momentum(eval=lambda x: x * x, deriv=lambda x: 2.0 * x,
                 domain=(0.0, 1.0))
    p = integrate_profile(m, start_x=0.5, s_max=2.5, samples_per_branch=300)
    assert len(p.branch_events) == 1
    s_turn = p.branch_events[0]
    i = np.searchsorted(p.s, s_turn)
    assert_close(p.x[i], 1.0, 1e-8, "turning at unit momentum")
    assert p.x[-1] < 0.999  # came back down
    assert unit_speed_error(p) < 1e-9


def test_integrate_profile_terminal_domain_exit():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=2.0, s_max=50.0, samples_per_branch=128)
    # the flow must stop at the domain edge x = 4, never beyond
    assert p.x[-1] <= 4.0 + 1e-12
    assert_close(p.x[-1], 4.0, 1e-9, "stops on the boundary")
    assert p.s[-1] < 50.0


def test_integrate_profile_backward_branch():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=2.0, s_max=1.0, s_min=-1.0,
                          samples_per_branch=200)
    assert p.s[0] < 0.0 < p.s[-1]
    assert np.all(np.diff(p.s) > 0.0)
    # catenoid through x(s0)=2: x = sqrt(1 + (s + s0)^2), s0 = sqrt(3)
    want = np.sqrt(1.0 + (p.s + math.sqrt(3.0)) ** 2)
    assert np.max(np.abs(p.x - want)) < 1e-9


def test_integrate_profile_direction_flag():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=2.0, direction=-1, s_max=0.7,
                          samples_per_branch=64)
    assert p.x[-1] < 2.0  # moving toward the waist


def test_momentum_of_profile_roundtrip_converges():
    m = catenoid_momentum()
    # one-sided, then the README's two-sided trace, whose halves join at
    # s = 0 with different sample spacings
    for s_max, s_min in ((1.8, 0.0), (2.0, -2.0)):
        errs = []
        for n in (512, 1024):
            p = integrate_profile(m, start_x=1.5, s_max=s_max, s_min=s_min,
                                  samples_per_branch=n)
            xs, K = momentum_of_profile(p)
            errs.append(np.max(np.abs(K[2:-2] - m.sample(xs[2:-2]))))
        assert errs[0] < 5e-6
        assert errs[1] < errs[0] / 3.0  # second-order estimator


def test_momentum_of_profile_translation_invariant():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=1.5, s_max=1.0, samples_per_branch=128)
    x1, k1 = momentum_of_profile(p.x, p.z)
    x2, k2 = momentum_of_profile(p.x, p.z + 17.25)
    assert np.array_equal(x1, x2)
    assert np.max(np.abs(k1 - k2)) < 1e-12


def test_momentum_of_profile_rejects_repeated_points():
    with pytest.raises(DegeneratePolyline):
        momentum_of_profile(np.array([1.0, 1.0, 2.0]),
                            np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegeneratePolyline):
        momentum_of_profile(np.array([1.0]), np.array([0.0]))


def test_discrete_meridian_curvature_converges():
    m = catenoid_momentum()
    # one-sided, then the two-sided trace whose halves join at s = 0 with
    # different sample spacings
    for s_max, s_min in ((1.8, 0.0), (2.0, -2.0)):
        errs = []
        for n in (512, 1024):
            p = integrate_profile(m, start_x=1.5, s_max=s_max, s_min=s_min,
                                  samples_per_branch=n)
            samples = discrete_curvatures(p)[2:-2]
            errs.append(max(abs(c.k_m - m.deriv(c.x)) for c in samples))
        assert errs[0] < 5e-6
        assert errs[1] < errs[0] / 3.0  # second-order at the join too


def test_discrete_curvatures_catenoid():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=1.5, s_max=1.5, samples_per_branch=1024)
    samples = discrete_curvatures(p)
    H = np.array([c.H for c in samples])
    assert np.max(np.abs(H[3:-3])) < 5e-6  # minimal surface
    xg = np.array([c.x for c in samples])
    KG = np.array([c.K_G for c in samples])
    assert np.max(np.abs(KG[3:-3] + 1.0 / xg[3:-3] ** 4)) < 5e-5


def test_discrete_curvatures_catenoid_converge():
    # halving the sample spacing cuts the interior worst |H| and
    # |K_G + 1/x^4| by at least 3x (second order: about 4x)
    m = catenoid_momentum()
    errs = []
    for n in (512, 1024):
        p = integrate_profile(m, start_x=1.5, s_max=1.5, samples_per_branch=n)
        samples = discrete_curvatures(p)[3:-3]
        errs.append((max(abs(c.H) for c in samples),
                     max(abs(c.K_G + 1.0 / c.x ** 4) for c in samples)))
    assert errs[1][0] < errs[0][0] / 3.0
    assert errs[1][1] < errs[0][1] / 3.0


def test_profile_csv_format():
    m = catenoid_momentum()
    p = integrate_profile(m, start_x=1.5, s_max=0.5, samples_per_branch=16)
    text = profile_to_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == "s,x,z,tx,tz"
    assert len(lines) == len(p) + 1
    row = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(row[:, 0], p.s)  # 17 significant digits round-trip
    assert np.array_equal(row[:, 1], p.x)


def _csv_per_line(p):
    """The one-f-string-per-row profile writer, kept as the reference."""
    buf = io.StringIO()
    buf.write("s,x,z,tx,tz\n")
    for i in range(len(p)):
        buf.write(f"{p.s[i]:.17g},{p.x[i]:.17g},{p.z[i]:.17g},"
                  f"{p.tx[i]:.17g},{p.tz[i]:.17g}\n")
    return buf.getvalue()


def test_profile_csv_matches_per_line_formatter():
    rng = np.random.default_rng(8)
    special = [-0.0, 5e-324, 1e308, -1e-300, 0.1, 1.0, math.nan, -math.inf,
               math.inf, 2.5]
    scaled = rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
    cols = np.concatenate((special, scaled)).reshape(5, -1)
    p = Profile(*cols, branch_events=())
    assert profile_to_csv(p) == _csv_per_line(p)

    p = integrate_profile(catenoid_momentum(), start_x=1.5, s_max=0.5,
                          samples_per_branch=16)
    assert profile_to_csv(p) == _csv_per_line(p)


def test_profile_len_and_fields():
    p = Profile(s=np.array([0.0, 1.0]), x=np.array([1.0, 2.0]),
                z=np.array([0.0, 0.5]), tx=np.array([1.0, 1.0]),
                tz=np.array([0.0, 0.0]), branch_events=())
    assert len(p) == 2


# --- the quadrature trace against SciPy's solve_ivp --------------------------

def _tangent_angle_reference(m, start_x, direction, s):
    """x and z of the tangent-angle system x' = cos(phi), z' = sin(phi),
    phi' = K'(x) through (start_x, 0) at the arclengths s, integrated by
    SciPy's DOP853 at rtol 1e-12 from s = 0 each way, and its turning points
    (zeros of cos(phi) away from s = 0)."""
    from scipy.integrate import solve_ivp

    k0 = min(1.0, max(-1.0, m.eval(start_x)))
    phi0 = math.asin(k0) if direction >= 0 else math.pi - math.asin(k0)

    def turn(t, y):
        return math.cos(y[2])

    x, z, turns = np.empty_like(s), np.empty_like(s), 0
    for part in (s >= 0.0, s <= 0.0):
        if not np.any(s[part] != 0.0):
            continue
        end = float(s[part][np.argmax(np.abs(s[part]))])
        sol = solve_ivp(lambda t, y: (math.cos(y[2]), math.sin(y[2]), m.deriv(y[0])),
                        (0.0, end), (start_x, 0.0, phi0), method="DOP853", rtol=1e-12,
                        atol=1e-14, dense_output=True, events=turn)
        x[part], z[part] = sol.sol(s[part])[:2]
        turns += int(np.count_nonzero(np.abs(sol.t_events[0]) > 1e-9))
    return x, z, turns


@pytest.mark.parametrize("m, kwargs, n_turns", [
    (catenoid_momentum(), dict(start_x=2.0, s_max=1.5, s_min=-2.5), 1),
    (unduloid_momentum(), dict(start_x=0.5, s_max=11.5), 7),
    (sphere_momentum(), dict(start_x=0.0, s_max=4.0), 1),
], ids=["two-sided catenoid", "8-branch unduloid", "pole-to-pole sphere"])
def test_trace_matches_solve_ivp(m, kwargs, n_turns):
    p = integrate_profile(m, samples_per_branch=200, **kwargs)
    x, z, turns = _tangent_angle_reference(m, kwargs["start_x"], +1, p.s)
    assert len(p.branch_events) == turns == n_turns
    assert np.max(np.abs(p.x - x)) <= 1e-9
    assert np.max(np.abs(p.z - z)) <= 1e-9


def test_turning_points_of_an_unduloid_are_sums_of_band_lengths():
    # H = 1, c = 0.12 between its turning points: every band has the
    # arclength pi/2 and the height of the quadrature routes' test above
    m = momentum_from_mean(lambda x: 1.0, 0.12, (0.13944487245360107, 0.860555127546399),
                           anchor=0.0)
    p = integrate_profile(m, start_x=0.5, s_max=12.0, samples_per_branch=64)
    turns = np.array(p.branch_events)
    assert len(turns) >= 7
    assert np.max(np.abs(np.diff(turns) - 0.5 * math.pi)) <= 1e-11
    at = np.searchsorted(p.s, turns)
    assert np.array_equal(p.s[at], turns)  # a sample on every turning point
    assert np.max(np.abs(np.diff(p.z[at]) - 1.3405053876890782479)) <= 2e-11


@pytest.mark.parametrize("s_max, s_min", [(-1.0, -1.0), (-0.5, 0.0), (1.0, 0.5), (0.0, 0.0),
                                          (math.inf, 0.0), (1.0, -math.inf)])
def test_trace_refuses_caps_on_the_wrong_side_of_zero(s_max, s_min):
    m = momentum_from_mean(lambda x: 1.0, 0.1, (0.15, 0.85), anchor=0.0)
    with pytest.raises(ParamOutOfRange, match="arclength caps"):
        integrate_profile(m, 0.5, s_max=s_max, s_min=s_min, samples_per_branch=8)


def test_backward_trace_keeps_its_start():
    m = momentum_from_mean(lambda x: 1.0, 0.1, (0.15, 0.85), anchor=0.0)
    back = integrate_profile(m, 0.5, s_max=0.0, s_min=-1.0, samples_per_branch=8)
    both = integrate_profile(m, 0.5, s_max=1.0, s_min=-1.0, samples_per_branch=8)
    assert (back.s[-1], back.x[-1], back.z[-1]) == (0.0, 0.5, 0.0)
    assert np.all(np.diff(back.s) > 0.0)
    n = len(back)
    assert np.array_equal(both.s[:n], back.s) and np.array_equal(both.x[:n], back.x)
    assert both.branch_events[:len(back.branch_events)] == back.branch_events


def test_degenerate_turning_point_is_a_typed_error():
    # K = 1 - (x - 0.5)^2 touches 1 with K' = 0: the branch length to x = 0.5
    # diverges logarithmically, so the trace cannot reach or pass it
    m = Momentum(lambda x: 1.0 - (x - 0.5) ** 2, lambda x: -2.0 * (x - 0.5), (0.0, 1.0))
    with pytest.raises(EventLocatorFailure, match=r"x = 0\.5\b") as info:
        integrate_profile(m, 0.2, s_max=3.0)
    assert isinstance(info.value, NumericalError)


_TRACED_ENTRIES = [e for e in catalog.list_entries() if e.momentum is not None]


@pytest.mark.parametrize("entry", _TRACED_ENTRIES, ids=[e.name for e in _TRACED_ENTRIES])
@pytest.mark.parametrize("s_max, s_min", [(6.0, 0.0), (0.0, -6.0), (6.0, -6.0)],
                         ids=["forward", "backward", "both ways"])
def test_catalog_traces_every_way(entry, s_max, s_min):
    lo, hi = entry.momentum.domain
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = integrate_profile(entry.momentum, 0.5 * (lo + hi), s_max=s_max, s_min=s_min,
                              samples_per_branch=64)
    assert np.all(np.diff(p.s) > 0.0)
    assert np.max(np.abs(p.tx ** 2 + p.tz ** 2 - 1.0)) <= 1e-14
    at = np.searchsorted(p.s, p.branch_events)
    assert np.array_equal(p.s[at], p.branch_events)
    assert np.all(np.abs(np.abs(entry.momentum.sample(p.x[at])) - 1.0) <= 1e-12)
