"""Shared numerical helpers for the test suite."""
import math
import time

import numpy as np
import pytest


def richardson_deriv(f, t, h):
    """Fourth-order central difference; good to ~1e-12 for smooth f."""
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d2 = (f(t + h / 2.0) - f(t - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def sup_distance(ax, az, bx, bz):
    """Pointwise sup distance between two equally-parametrized curves."""
    return float(np.max(np.hypot(np.asarray(ax) - np.asarray(bx),
                                 np.asarray(az) - np.asarray(bz))))


def assert_close(got, want, tol, label=""):
    err = abs(got - want)
    assert err <= tol, f"{label}: |{got!r} - {want!r}| = {err:.3e} > {tol:.1e}"


def catenoid_momentum():
    """K = -a/x for a = 1 on [1, 4]: unit catenoid, waist toward the left."""
    from revolve.momentum import Momentum
    return Momentum(eval=lambda x: -1.0 / x,
                    deriv=lambda x: 1.0 / x ** 2,
                    domain=(1.0, 4.0))


def sphere_momentum(R=1.0, hi=None):
    from revolve.momentum import Momentum
    return Momentum(eval=lambda x: x / R,
                    deriv=lambda x: 1.0 / R,
                    domain=(0.0, hi if hi is not None else R))


def unduloid_momentum(c=0.12):
    """H = 1 anchored on the axis: K = x + c/x, turning where x^2 - x + c = 0."""
    from revolve.momentum import Momentum
    r = math.sqrt(1.0 - 4.0 * c)
    lo, hi = 0.25 * (1.0 - r), 0.5 * (1.0 + 0.5 * (1.0 + r))
    return Momentum(eval=lambda x: x + c / x, deriv=lambda x: 1.0 - c / x ** 2,
                    domain=(lo, hi))


def unit_speed_error(profile):
    return float(np.max(np.abs(profile.tx ** 2 + profile.tz ** 2 - 1.0)))


def arch_param_of_arclength(s, R=1.0):
    """Inverse of the cycloid arclength s(t) = 4R(1 - cos(t/2)) on one arch."""
    return 2.0 * np.arccos(1.0 - np.clip(s, 0.0, 8.0 * R) / (4.0 * R))


def pinned_traces():
    """name -> (momentum, integrate_profile keywords) of the traces whose
    columns are pinned bit for bit: the unduloid H = 1, c = 0.12 both ways
    through seven turning points, forwards only with direction -1, and
    backwards only; and the README catenoid both ways."""
    from revolve.expr import parse_expr
    from revolve.momentum import momentum_from_kp, momentum_from_mean
    und = momentum_from_mean(lambda x: 1.0, 0.12, (0.13944487245360107, 0.860555127546399),
                             anchor=0.0)
    kp = parse_expr("1/x^2")
    cat = momentum_from_kp(kp.as_function({}), (1.001, 3.0),
                           p_deriv=kp.derivative().as_function({}))
    return {
        "unduloid both ways": (und, dict(start_x=0.5, s_max=6.0, s_min=-5.0,
                                         samples_per_branch=300)),
        "unduloid direction -1": (und, dict(start_x=0.5, direction=-1, s_max=6.0,
                                            samples_per_branch=300)),
        "unduloid backwards": (und, dict(start_x=0.5, s_max=0.0, s_min=-5.0,
                                         samples_per_branch=300)),
        "README catenoid": (cat, dict(start_x=1.5, s_max=2.0, s_min=-2.0)),
    }


# ---------------------------------------------------------------------------
# Randomized momentum sweep: every library invariant that takes a momentum as
# input, measured over a batch of random cubic momenta. Runs once per session;
# the per-invariant worst errors are asserted by the property and acceptance
# tests against their frozen bounds.

SWEEP_CASES = 200
SWEEP_LO, SWEEP_HI = 0.3, 1.7


def run_momentum_sweep(n_cases=SWEEP_CASES):
    from revolve.curvature import (constraint_residual, gauss_curvature,
                                   gauss_from_mean, mean_curvature,
                                   principal_curvatures)
    from revolve.mesh import fundamental_forms
    from revolve.momentum import (Momentum, admissible_intervals,
                                  momentum_from_gauss, momentum_from_kp,
                                  momentum_from_mean)
    from revolve.reconstruct import (arclength, discrete_curvatures,
                                     graph_height, height_displacement,
                                     integrate_profile, momentum_of_profile)

    lo, hi = SWEEP_LO, SWEEP_HI
    rng = np.random.default_rng(20260819)
    worst = {}

    def bump(key, val, case):
        if key not in worst or val > worst[key][0]:
            worst[key] = (float(val), case)

    xs100 = np.linspace(lo + 1e-3, hi - 1e-3, 100)
    xs25 = np.linspace(lo + 1e-3, hi - 1e-3, 25)

    t_start = time.perf_counter()
    for case in range(n_cases):
        a0, a1, a2, a3 = rng.uniform(-1.0, 1.0, size=4)
        grid = np.linspace(lo, hi, 257)
        peak = float(np.max(np.abs(a0 + grid * (a1 + grid * (a2 + grid * a3)))))
        s = rng.uniform(0.3, 0.95) / peak

        def K(x, a0=a0, a1=a1, a2=a2, a3=a3, s=s):
            return s * (a0 + x * (a1 + x * (a2 + x * a3)))

        def dK(x, a1=a1, a2=a2, a3=a3, s=s):
            return s * (a1 + x * (2.0 * a2 + x * 3.0 * a3))

        def d2K(x, a2=a2, a3=a3, s=s):
            return s * (2.0 * a2 + 6.0 * a3 * x)

        d3K = 6.0 * s * a3
        m = Momentum(K, dK, (lo, hi))

        def H(x):
            return 0.5 * (dK(x) + K(x) / x)

        def G(x):
            return K(x) * dK(x) / x

        # |K| < 1 on the whole band, so the scan must return it unsplit
        assert admissible_intervals(m) == [(lo, hi)], f"case {case}"

        # prescribing k_p is rigid: K/x reproduces the input pointwise
        p = lambda x: K(x) / x
        pd = lambda x: (dK(x) * x - K(x)) / (x * x)
        mkp = momentum_from_kp(p, (lo, hi), p_deriv=pd)
        bump("kp_rel", max(abs(mkp.eval(float(x)) / float(x) - p(float(x)))
                           / max(abs(p(float(x))), 1e-30) for x in xs25), case)

        # mean prescription: H roundtrip, K recovery, constant additivity
        cc = lo * K(lo)
        m2 = momentum_from_mean(H, cc, (lo, hi), anchor=lo, tol=1e-9)
        bump("mean_H", max(abs(mean_curvature(m2, float(x)) - H(float(x)))
                           for x in xs100), case)
        bump("mean_K", max(abs(m2.eval(float(x)) - K(float(x)))
                           for x in xs100), case)
        m2b = momentum_from_mean(H, cc + 0.37, (lo, hi), anchor=lo, tol=1e-9)
        bump("mean_c", max(abs(float(x) * (m2b.eval(float(x)) - m2.eval(float(x)))
                               - 0.37) for x in xs25), case)

        # gauss prescription: K_G roundtrip away from zeros of K, K recovery,
        # and sigma = -1 as the exact negation
        cg = K(lo) ** 2
        m3 = momentum_from_gauss(G, cg, +1, (lo, hi), anchor=lo, tol=1e-8)
        kmask = [float(x) for x in xs100 if abs(K(float(x))) > 0.05]
        bump("gauss_G", max(abs(gauss_curvature(m3, x) - G(x)) for x in kmask), case)
        bump("gauss_K", max(abs(abs(m3.eval(x)) - abs(K(x))) for x in kmask), case)
        m3n = momentum_from_gauss(G, cg, -1, (lo, hi), anchor=lo, tol=1e-8)
        bump("gauss_sig", max(abs(m3n.eval(float(x)) + m3.eval(float(x)))
                              for x in xs25), case)

        # curvature/mesh: algebraic identities between the three operations
        for x in xs25:
            x = float(x)
            km, kp_ = principal_curvatures(m, x)
            bump("ident_H", abs(mean_curvature(m, x) - 0.5 * (km + kp_)), case)
            bump("ident_G", abs(gauss_curvature(m, x) - km * kp_), case)
            (E, Gf), (Lf, Nf) = fundamental_forms(m, x)
            bump("forms", max(abs(Lf / E - km), abs(Nf / Gf - kp_)), case)

        # Gauss curvature induced by the mean prescription
        gfm = gauss_from_mean(H, cc / 2.0, xs100, (lo, hi), anchor=lo, tol=1e-9)
        bump("gfm", max(abs(float(gfm[i]) - gauss_curvature(m2, float(xs100[i])))
                        for i in range(len(xs100))), case)

        # compatibility of the (H, K_G) pair with coupled constants
        res = constraint_residual(H, G, lo * K(lo) / 2.0, K(lo) ** 2 / 2.0,
                                  xs100, (lo, hi), anchor=lo, tol=1e-10)
        bump("constraint", float(np.max(np.abs(res))), case)

        # arclength is additive
        sab = arclength(m, lo, hi)
        bump("arc_add", abs(arclength(m, lo, 1.0) + arclength(m, 1.0, hi) - sab),
             case)

        # ODE height agrees with the quadrature height
        prof = integrate_profile(m, lo, direction=+1, s_max=sab,
                                 samples_per_branch=4096)
        bump("ode_z", abs((prof.z[-1] - prof.z[0]) - height_displacement(m, lo, hi)),
             case)

        # measured momentum and measured k_m on interior samples
        xs_b, ks_b = momentum_of_profile(prof)
        bump("round_A", float(np.max(np.abs(
            ks_b[2:-2] - np.array([K(float(x)) for x in xs_b[2:-2]])))), case)
        samples = discrete_curvatures(prof)
        bump("round_B", max(abs(samples[i].k_m - dK(float(prof.x[i])))
                            for i in range(2, len(samples) - 2)), case)

        # vertical translation: x bitwise, K to rounding of the shifted input
        xs_t, ks_t = momentum_of_profile(prof.x, prof.z + 17.25)
        assert np.array_equal(xs_t, xs_b), f"case {case}"
        bump("transl", float(np.max(np.abs(ks_t - ks_b))), case)

        # slope of the cumulative height graph: the centered stencil must hit
        # K/sqrt(1-K^2) within its own truncation allowance plus the floor
        xg, zg = graph_height(m, lo, hi, n=513)  # |K| <= 0.95: equispaced
        h = xg[1] - xg[0]
        d4 = (zg[:-4] - 8 * zg[1:-3] + 8 * zg[3:-1] - zg[4:]) / (12.0 * h)
        kv = K(xg[2:-2])
        want = kv / np.sqrt(1.0 - kv ** 2)
        kall = K(xg)
        u = 1.0 - kall * kall
        g2 = 3.0 * kall * u ** -2.5
        g3 = 3.0 * (1.0 + 4.0 * kall * kall) * u ** -3.5
        g4 = 15.0 * kall * (3.0 + 4.0 * kall * kall) * u ** -4.5
        k1 = dK(xg)
        k2 = d2K(xg)
        z5 = g4 * k1 ** 4 + 6.0 * g3 * k1 * k1 * k2 \
            + g2 * (3.0 * k2 * k2 + 4.0 * k1 * d3K)
        az5 = np.abs(z5)
        stencil = np.max(np.stack([az5[i:len(az5) - 4 + i] for i in range(5)]),
                         axis=0)
        trunc = 4.0 * (h ** 4 / 30.0) * stencil
        bump("graph_slope", float(np.max(np.abs(d4 - want) - trunc)), case)

    return {"elapsed": time.perf_counter() - t_start,
            "n_cases": n_cases, "worst": worst}


@pytest.fixture(scope="session")
def momentum_sweep():
    return run_momentum_sweep()
