import io
import math

import numpy as np
import pytest

from conftest import (assert_close, catenoid_momentum, sphere_momentum,
                      unit_speed_error)
from revolve.errors import (DegeneratePolyline, DomainViolation,
                            NonIntegrableSingularity)
from revolve.momentum import Momentum
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


def test_graph_height_uniform_spacing_option():
    m = catenoid_momentum()
    xs, _ = graph_height(m, 1.5, 3.0, n=33, spacing="uniform")
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


def test_profile_len_and_fields():
    p = Profile(s=np.array([0.0, 1.0]), x=np.array([1.0, 2.0]),
                z=np.array([0.0, 0.5]), tx=np.array([1.0, 1.0]),
                tz=np.array([0.0, 0.0]), branch_events=())
    assert len(p) == 2
