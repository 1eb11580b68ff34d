import math
import time

import numpy as np
import pytest

from conftest import assert_close, richardson_deriv
from revolve import catalog
from revolve.errors import (EvaluationDomainError, ParamOutOfRange,
                           UnknownIdentifier, ValidationError)
from revolve.quadrature import _PROBE_ULPS


def _unit_speed_err(entry, ss):
    v = np.array([entry.closed_profile.velocity(s) for s in ss])
    return float(np.max(np.abs(v[:, 0] ** 2 + v[:, 1] ** 2 - 1.0)))


def _momentum_identity_err(entry, ss):
    """|zdot(s) - K(x(s))|: the closed form solves the momentum equation."""
    worst = 0.0
    for s in ss:
        x, _ = entry.closed_profile.point(s)
        _, vz = entry.closed_profile.velocity(s)
        worst = max(worst, abs(vz - entry.momentum.eval(x)))
    return worst


def test_basic_plane_cone_sphere():
    p = catalog.build("plane")
    assert p.momentum.eval(2.0) == 0.0

    c = catalog.build("cone", theta0=math.pi / 4.0)
    assert_close(c.momentum.eval(1.0), math.sin(math.pi / 4.0), 1e-15, "cone K")

    s = catalog.build("sphere", R=2.0)
    assert_close(s.momentum.eval(1.0), 0.5, 1e-15, "sphere K")
    x, z = s.closed_profile.point(math.pi / 2.0)
    assert_close(x, 2.0, 1e-15, "equator x")
    assert_close(z, 0.0, 1e-15, "equator z")


def test_torus_profile_closes():
    t = catalog.build("torus", a=2.0, R=1.0)
    lo, hi = t.closed_profile.param_range
    x0, z0 = t.closed_profile.point(lo)
    x1, z1 = t.closed_profile.point(hi)
    assert_close(math.hypot(x1 - x0, z1 - z0), 0.0, 1e-12, "closed circle")
    with pytest.raises(ParamOutOfRange):
        catalog.build("torus", a=0.0)


def test_cylinder_is_momentum_exempt():
    c = catalog.build("cylinder", a=1.5)
    assert c.momentum is None
    assert "momentum-exempt" in c.label


def test_catenoid_entry():
    e = catalog.build("catenoid", a=1.0)
    assert e.weingarten_q == -1.0
    x, z = e.closed_profile.point(2.0)
    assert_close(z, math.acosh(2.0), 1e-12, "catenoid graph")


def test_hopf_kuhnel_names_and_identity():
    names = {1.0: "sphere", -1.0: "catenoid", 2.0: "Mylar balloon",
             0.5: "onducycloid", -0.5: "Flamm paraboloid"}
    for q, name in names.items():
        e = catalog.hopf_kuhnel(q, 1.0)
        assert name in (e.label or ""), (q, e.label)

    for q in (2.0, 0.5, -0.5, -1.0, 3.0):
        e = catalog.hopf_kuhnel(q, 1.0)
        t0, t1 = e.closed_profile.param_range
        pad = 1e-3 * (t1 - t0)
        ts = np.linspace(t0 + pad, t1 - pad, 60)
        for t in ts:
            x, _ = e.closed_profile.point(t)
            vx, vz = e.closed_profile.velocity(t)
            K = vz / math.hypot(vx, vz)
            assert_close(abs(K), x ** q, 1e-10, f"|K| = x^{q}")


def test_hopf_kuhnel_flamm_gauss_value():
    # Flamm paraboloid q = -1/2, a = 1: K_G = q k_p^2 = -x^{-3}/2 ... at the
    # momentum level k_m k_p = q (x^(q-1))^2 = -(1/2) x^{-3}; spot x = 4
    e = catalog.hopf_kuhnel(-0.5, 1.0)
    m = e.momentum
    x = 4.0
    k_m, k_p = m.deriv(x), m.eval(x) / x
    assert_close(k_m * k_p, -1.0 / 128.0, 1e-14, "Flamm K_G at x=4")


def test_hopf_kuhnel_domains():
    e = catalog.hopf_kuhnel(2.0, 1.0)
    assert e.momentum.domain == (0.0, 1.0)
    e = catalog.hopf_kuhnel(-1.0, 1.0)
    lo, hi = e.momentum.domain
    assert lo == 1.0 and hi == 4.0  # t capped where |K| = 1/4^|q| reaches x=4a


def test_elasticoid_regimes():
    assert "lintearia" in catalog.elasticoid(1.0, 0.0).label
    assert "pseudo-sinusoid" in catalog.elasticoid(1.0, -0.5).label
    k1 = catalog.pseudolemniscate_modulus(1.0)
    assert "pseudolemniscate" in catalog.elasticoid(1.0, k1).label
    assert "convict" in catalog.elasticoid(1.0, 1.0).label
    dom = catalog.elasticoid(1.0, 0.3).momentum.domain
    assert_close(dom[0], 0.0, 1e-15, "domain starts on axis for k <= 1")
    assert_close(dom[1], math.sqrt(1.3), 1e-12, "right edge where K = 1")


def test_pseudolemniscate_modulus_value_and_speed():
    t0 = time.time()
    k1 = catalog.pseudolemniscate_modulus(1.0)
    dt = time.time() - t0
    assert_close(k1, 0.65222, 1e-4, "closure modulus")
    assert dt < 0.1, f"root search took {dt:.3f}s"
    # scale invariance in the stiffness parameter
    assert_close(catalog.pseudolemniscate_modulus(2.5), k1, 1e-9, "a-invariant")


def test_exponential_families_satisfy_momentum_equation():
    ss = np.linspace(-3.0, 3.0, 121)
    for entry in (catalog.equal_strength(1.0, 0.0),
                  catalog.equal_strength(1.0, math.pi / 3.0),
                  catalog.ondualysoid(1.0),
                  catalog.loopoid(1.0, 1.0)):
        assert _unit_speed_err(entry, ss) < 1e-12, entry.name
        assert _momentum_identity_err(entry, ss) < 1e-12, entry.name


def test_equal_strength_spot_values():
    e = catalog.equal_strength(1.0, 0.0)
    x, z = e.closed_profile.point(0.0)
    assert_close(x, 0.0, 1e-15, "x(0)")
    assert_close(z, math.pi / 2.0, 1e-15, "z(0)")
    vx, vz = e.closed_profile.velocity(0.0)
    assert_close(vx, 0.0, 1e-15, "vertical tangent")
    assert_close(vz, 1.0, 1e-15, "vertical tangent")
    with pytest.raises(ParamOutOfRange):
        catalog.equal_strength(1.0, math.pi / 2.0)


def test_ondualysoid_spot_value():
    e = catalog.ondualysoid(1.0)
    x, z = e.closed_profile.point(1.0)
    assert_close(x, 0.0, 1e-15, "x(1)")
    assert_close(z, math.pi / 2.0 - 1.0, 1e-15, "z(1)")


def test_loopoid_height_is_continuous():
    # the closed form involves arctan of a tangent; the unwrap must not jump
    e = catalog.loopoid(1.0, 1.0)
    u_pole = math.pi  # tan(u/2) pole
    s_pole = u_pole / math.sinh(1.0)
    for eps in (1e-5, 1e-7, 1e-9):
        zm = e.closed_profile.point(s_pole - eps)[1]
        zp = e.closed_profile.point(s_pole + eps)[1]
        assert abs(zp - zm) < 1e-4, f"jump {zp - zm:.3e} across the pole"
    labels = {catalog.loopoid(1.0, 0.5).label,
              catalog.loopoid(1.0, 1.3169578969248166).label,
              catalog.loopoid(1.0, 2.0).label}
    assert labels == {"cosh(eta) < a + 1", "cosh(eta) = a + 1",
                      "cosh(eta) > a + 1"}


def test_mean_inverse_three_branches():
    # parabolic spot value z(1) = -1/3 for mu = 1/2, c = -1
    e = catalog.mean_inverse_profile(0.5, -1.0)
    assert e.label == "Parabolic"
    assert_close(e.closed_profile.point(1.0)[1], -1.0 / 3.0, 1e-14, "z(1)")

    # every branch satisfies dz/dx = K / sqrt(1 - K^2)
    for mu, c in ((0.5, -1.0), (0.25, 0.3), (0.25, -0.3),
                  (math.cosh(1.0) / 2.0, -1.0)):
        e = catalog.mean_inverse_profile(mu, c)
        lo, hi = e.closed_profile.param_range
        w = (hi - lo) if math.isfinite(hi) else 4.0
        for x in np.linspace(lo + 1e-2 * w, min(lo + 4.0, lo + w - 1e-2 * w), 25):
            K = e.momentum.eval(x)
            want = K / math.sqrt(1.0 - K * K)
            got = richardson_deriv(lambda u: e.closed_profile.point(u)[1], x, 1e-4)
            assert abs(got - want) < 1e-7, (mu, c, x)


def test_mean_inverse_trig_degenerate_constant():
    # c = 0 collapses the trigonometric branch to the straight cone line
    e = catalog.mean_inverse_profile(0.25, 0.0)
    th = math.asin(0.5)
    for x in (0.5, 1.0, 2.0):
        assert_close(e.closed_profile.point(x)[1], math.tan(th) * x, 1e-13,
                     "cone line")


def test_transonducycloid():
    e = catalog.transonducycloid(1.0, 0.0)
    assert e.weingarten_q == 0.5
    x, z = e.closed_profile.point(math.pi)
    assert_close(x, 2.0, 1e-15, "arch top x")
    assert_close(z, 0.0, 1e-15, "arch top z")
    assert_close(e.momentum.eval(0.5), 0.5, 1e-15, "K = sqrt(x/2R)")
    # shifted by a > 0: same shape, no Weingarten relation
    e2 = catalog.transonducycloid(1.0, 0.7)
    assert e2.weingarten_q is None
    assert_close(e2.closed_profile.point(math.pi)[0], 2.7, 1e-15, "shifted")


def test_build_dispatch_and_errors():
    e = catalog.build("loopoid", a=1.0, eta=1.0)
    assert e.name == "loopoid"
    with pytest.raises(UnknownIdentifier):
        catalog.build("helicoid")
    with pytest.raises(ValidationError):
        catalog.build("sphere", wrong_param=1.0)
    with pytest.raises(ParamOutOfRange):
        catalog.build("sphere", R=-1.0)


def test_entry_json_shape():
    e = catalog.build("torus", a=2.0, R=1.0)
    d = e.to_json_dict()
    assert set(d) == {"name", "params", "provenance", "momentum", "label"}
    assert isinstance(d["momentum"], str) and d["momentum"]
    assert d["params"] == {"a": 2.0, "R": 1.0}


def test_list_entries_cover_all_builders():
    entries = catalog.list_entries()
    names = {e.name for e in entries}
    assert names == set(catalog._BUILDERS)
    for e in entries:
        d = e.to_json_dict()
        assert d["provenance"]


@pytest.mark.parametrize("entry", [e for e in catalog.list_entries() if e.momentum],
                         ids=lambda e: e.name)
def test_catalog_momenta_are_compiled_from_their_text(entry):
    m = entry.momentum
    assert m.eval.takes_arrays and m.deriv.takes_arrays
    lo, hi = m.domain
    w = hi - lo
    xs = np.linspace(lo + 0.05 * w, hi - 0.05 * w, 17)
    for f in (m.eval, m.deriv):
        got = f(xs)
        want = np.array([f(x) for x in xs.tolist()])
        # a few units in the last place of the O(1) terms: NumPy's functions
        # may differ from math's in the last bit, and a*exp(x) - 1 cancels
        ulp = np.spacing(np.maximum(1.0, np.abs(want)))
        assert np.all(np.abs(got - want) <= _PROBE_ULPS * ulp), f
    h = 1e-4 * w
    for x in xs.tolist():
        assert_close(m.deriv(x), richardson_deriv(m.eval, x, h), 1e-9 * max(1.0, abs(m.deriv(x))),
                     f"{entry.name} K' at {x}")


@pytest.mark.parametrize("entry, which, x", [
    (catalog.mean_inverse_profile(0.25, 0.0), "eval", 0.0),
    (catalog.mean_inverse_profile(0.25, 0.0), "deriv", 0.0),
    (catalog.transonducycloid(1.0, 0.7), "deriv", 0.7),
    (catalog.hopf_kuhnel(0.5, 1.0), "deriv", 0.0),
])
def test_catalog_momenta_raise_where_undefined(entry, which, x):
    with pytest.raises(EvaluationDomainError):
        getattr(entry.momentum, which)(x)
