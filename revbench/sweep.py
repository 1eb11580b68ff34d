"""The ``sweep`` workload: random cubic momenta prescribed four ways.

Each case draws K(x) = s*(a0 + a1 x + a2 x^2 + a3 x^3) on [0.3, 1.7], scaled
so that |K| < 1 on the whole band, writes its four curvatures as expression
text, parses them with ``revolve.expr`` as the CLI does, builds a momentum
from each, and runs the invariants of the test suite's momentum sweep on
them. One operation is one case. Nearly all the time goes to quadrature,
momentum, curvature and reconstruct; none goes to mesh.
"""
from __future__ import annotations

import numpy as np

LO, HI = 0.3, 1.7
CASES = 24                # cases per round
POOL = 4                  # candidates per stratum
FLOW_SAMPLES = 4096       # samples per branch of the traced profile
GRAPH_SAMPLES = 129       # samples of graph_height
XS = np.linspace(LO + 1e-3, HI - 1e-3, 100)

_K = "s*(a0 + a1*x + a2*x^2 + a3*x^3)"
_DK = "s*(a1 + 2*a2*x + 3*a3*x^2)"
TEXTS = {
    "kp": f"{_K}/x",
    "km": _DK,
    "mean": f"({_DK} + {_K}/x)/2",
    "gauss": f"{_K}*{_DK}/x",
}

# Worst error allowed per invariant. Keys shared with the frozen BOUNDS of
# tests/test_properties.py carry the same value; the others are set from the
# margins recorded in revbench/README.md.
BOUNDS = {
    "kp_rel": 1e-12,      # K/x of the k_p build against the prescribed k_p (relative)
    "kp_K": 1e-13,        # K of the k_p build against the analytic cubic
    "km_K": 5e-8,         # K of the k_m build against the analytic cubic
    "mean_K": 5e-8,       # K of the mean build against the analytic cubic
    "mean_H": 1e-8,       # H of the mean build against the analytic H
    "gauss_K": 1e-6,      # |K| of the Gauss build, away from zeros of K
    "gauss_G": 1e-8,      # K_G of the Gauss build, away from zeros of K
    "ident_H": 1e-14,     # H == (k_m + k_p)/2 on the k_p build
    "ident_G": 1e-14,     # K_G == k_m * k_p on the k_p build
    "kp_H": 1e-11,        # H of the k_p build against (K' + K/x)/2 by NumPy
    "kp_G": 1e-11,        # K_G of the k_p build against K K'/x by NumPy
    "gfm": 1e-9,          # gauss_from_mean against K_G of the mean build
    "gfm_exact": 5e-7,    # gauss_from_mean against K K'/x by NumPy
    "constraint": 1e-9,   # (H, K_G) residual with coupled constants
    "arc_add": 2e-10,     # arclength(lo, 1) + arclength(1, hi) == arclength(lo, hi)
    "ode_z": 1e-9,        # flow height against height_displacement
    "graph_z": 1e-9,      # graph_height's last height against height_displacement
    "round_A": 1e-6,      # measured momentum on interior profile samples
    "round_B": 1e-4,      # measured k_m on interior profile samples
}


class Case:
    """One seeded cubic momentum and the constants that go with it."""

    def __init__(self, rng: np.random.Generator):
        a = rng.uniform(-1.0, 1.0, size=4)
        grid = np.linspace(LO, HI, 257)
        peak = float(np.max(np.abs(np.polyval(a[::-1], grid))))
        self.s = float(rng.uniform(0.3, 0.95) / peak)
        self.a = [float(v) for v in a]
        self.params = {"s": self.s, "a0": self.a[0], "a1": self.a[1],
                       "a2": self.a[2], "a3": self.a[3]}
        k_lo = self.K(LO)
        self.c_km = k_lo               # K(lo)
        self.c_mean = LO * k_lo        # x K at lo
        self.c_gauss = k_lo * k_lo     # K^2 at lo

    def K(self, x):
        a0, a1, a2, a3 = self.a
        return self.s * (a0 + x * (a1 + x * (a2 + x * a3)))

    def dK(self, x):
        _, a1, a2, a3 = self.a
        return self.s * (a1 + x * (2.0 * a2 + x * 3.0 * a3))

    def H(self, x):
        return 0.5 * (self.dK(x) + self.K(x) / x)

    def G(self, x):
        return self.K(x) * self.dK(x) / x


def setup(seed: int, workdir: str) -> dict:
    """Draw POOL * CASES candidates, sort them by |s a3|, and take one at
    random from each run of POOL. The cost of a case follows the leading
    coefficient, which sets how far the antiderivatives of the degree-5
    integrands refine; stratifying on it gives every seed the same mix of
    cheap and dear cases, so rounds of different seeds do the same work."""
    rng = np.random.default_rng(seed)
    pool = sorted((Case(rng) for _ in range(POOL * CASES)),
                  key=lambda c: abs(c.s * c.a[3]))
    picks = rng.integers(POOL, size=CASES)
    return {"ops": [pool[POOL * i + int(k)] for i, k in enumerate(picks)]}


def _values(fn, xs) -> np.ndarray:
    return np.array([fn(float(x)) for x in xs])


def _build(tr, name, builder, f, *args, **kwargs):
    f = tr.wrap(f)
    with tr.span(name):
        m = builder(f, *args, **kwargs)
    tr.take("momentum.integrand_calls", f)
    return m


def run_op(rv, case: Case, tr) -> dict:
    """Run one case through every layer it touches; return the outputs."""
    dom = (LO, HI)
    xs = XS
    with tr.span("expr.parse_s"):
        parsed = {kind: rv.parse_expr(text) for kind, text in TEXTS.items()}
        fns = {kind: e.as_function(case.params) for kind, e in parsed.items()}
        dp = parsed["kp"].derivative().as_function(case.params)

    mkp = _build(tr, "momentum.build_kp_s", rv.momentum_from_kp, fns["kp"], dom,
                 p_deriv=dp)
    mkm = _build(tr, "momentum.build_km_s", rv.momentum_from_km, fns["km"],
                 case.c_km, dom, anchor=LO, tol=1e-9)
    mh = _build(tr, "momentum.build_mean_s", rv.momentum_from_mean, fns["mean"],
                case.c_mean, dom, anchor=LO, tol=1e-9)
    mg = _build(tr, "momentum.build_gauss_s", rv.momentum_from_gauss, fns["gauss"],
                case.c_gauss, +1, dom, anchor=LO, tol=1e-8)
    mgn = _build(tr, "momentum.build_gauss_s", rv.momentum_from_gauss, fns["gauss"],
                 case.c_gauss, -1, dom, anchor=LO, tol=1e-8)
    with tr.span("momentum.admissible_s"):
        admissible = rv.admissible_intervals(mh)

    out = {"admissible": admissible, "p_kp": _values(fns["kp"], xs),
           "K_kp": _values(mkp.eval, xs), "K_km": _values(mkm.eval, xs),
           "K_mean": _values(mh.eval, xs), "K_gauss": _values(mg.eval, xs),
           "K_gauss_neg": _values(mgn.eval, xs)}

    with tr.span("curvature.pointwise_s"):
        pc = np.array([rv.principal_curvatures(mkp, float(x)) for x in xs])
        out["k_m"], out["k_p"] = pc[:, 0], pc[:, 1]
        out["H_kp"] = _values(lambda x: rv.mean_curvature(mkp, x), xs)
        out["G_kp"] = _values(lambda x: rv.gauss_curvature(mkp, x), xs)
        out["H_mean"] = _values(lambda x: rv.mean_curvature(mh, x), xs)
        out["G_mean"] = _values(lambda x: rv.gauss_curvature(mh, x), xs)
        out["G_gauss"] = _values(lambda x: rv.gauss_curvature(mg, x), xs)
    with tr.span("curvature.gauss_from_mean_s"):
        out["gfm"] = np.asarray(rv.gauss_from_mean(
            fns["mean"], case.c_mean / 2.0, xs, dom, anchor=LO, tol=1e-9))
    with tr.span("curvature.constraint_residual_s"):
        out["residual"] = np.asarray(rv.constraint_residual(
            fns["mean"], fns["gauss"], case.c_mean / 2.0, case.c_gauss / 2.0,
            xs, dom, anchor=LO, tol=1e-10))

    with tr.span("reconstruct.quadrature_routes_s"):
        out["arc"] = (rv.arclength(mkp, LO, 1.0), rv.arclength(mkp, 1.0, HI),
                      rv.arclength(mkp, LO, HI))
        out["dz"] = rv.height_displacement(mkp, LO, HI)
    flow = rv.Momentum(mkp.eval, tr.wrap(mkp.deriv), mkp.domain)
    with tr.span("reconstruct.integrate_profile_s"):
        prof = rv.integrate_profile(flow, LO, direction=+1, s_max=out["arc"][2],
                                    samples_per_branch=FLOW_SAMPLES)
    tr.take("reconstruct.flow_deriv_calls", flow.deriv)
    tr.count("reconstruct.turning_points", len(prof.branch_events))
    out["flow_dz"] = float(prof.z[-1] - prof.z[0])
    with tr.span("reconstruct.graph_height_s"):
        _, zg = rv.graph_height(mkp, LO, HI, n=GRAPH_SAMPLES)
    out["graph_dz"] = float(zg[-1])
    with tr.span("reconstruct.discrete_s"):
        out["profile_x"], out["profile_K"] = rv.momentum_of_profile(prof)
        samples = rv.discrete_curvatures(prof)
    out["sample_x"] = np.array([c.x for c in samples])
    out["sample_k_m"] = np.array([c.k_m for c in samples])
    return out


def errors(case: Case, out: dict) -> dict:
    """Each invariant's worst error for one case, from NumPy on the cubic."""
    xs = XS
    K, dK, H, G = case.K(xs), case.dK(xs), case.H(xs), case.G(xs)
    p = out["p_kp"]
    away = np.abs(K) > 0.05      # the Gauss route loses its sign at zeros of K
    interior = slice(2, -2)
    arc = out["arc"]
    err = {
        "kp_rel": np.max(np.abs(out["K_kp"] / xs - p) / np.maximum(np.abs(p), 1e-30)),
        "kp_K": np.max(np.abs(out["K_kp"] - K)),
        "km_K": np.max(np.abs(out["K_km"] - K)),
        "mean_K": np.max(np.abs(out["K_mean"] - K)),
        "mean_H": np.max(np.abs(out["H_mean"] - H)),
        "gauss_K": np.max(np.abs(np.abs(out["K_gauss"][away]) - np.abs(K[away]))),
        "gauss_G": np.max(np.abs(out["G_gauss"][away] - G[away])),
        "ident_H": np.max(np.abs(out["H_kp"] - 0.5 * (out["k_m"] + out["k_p"]))),
        "ident_G": np.max(np.abs(out["G_kp"] - out["k_m"] * out["k_p"])),
        "kp_H": np.max(np.abs(out["H_kp"] - H)),
        "kp_G": np.max(np.abs(out["G_kp"] - G)),
        "gfm": np.max(np.abs(out["gfm"] - out["G_mean"])),
        "gfm_exact": np.max(np.abs(out["gfm"] - G)),
        "constraint": np.max(np.abs(out["residual"])),
        "arc_add": abs(arc[0] + arc[1] - arc[2]),
        "ode_z": abs(out["flow_dz"] - out["dz"]),
        "graph_z": abs(out["graph_dz"] - out["dz"]),
        "round_A": np.max(np.abs(out["profile_K"][interior]
                                 - case.K(out["profile_x"][interior]))),
        "round_B": np.max(np.abs(out["sample_k_m"][interior]
                                 - case.dK(out["sample_x"][interior]))),
    }
    return {k: float(v) for k, v in err.items()}


def check(state: dict, outputs: list) -> tuple[list[str], dict]:
    """Failures of the round's outputs, and the worst value of each check."""
    failures: list[str] = []
    worst: dict[str, float] = dict.fromkeys(BOUNDS, 0.0)
    worst["gauss_sig"] = 0.0
    for i, (case, out) in enumerate(zip(state["ops"], outputs)):
        if out is None:
            continue
        if out["admissible"] != [(LO, HI)]:
            failures.append(f"case {i}: admissible_intervals gave {out['admissible']!r}")
        for key, val in errors(case, out).items():
            worst[key] = max(worst[key], val)
            if not val <= BOUNDS[key]:
                failures.append(f"case {i}: {key} {val:.3e} > {BOUNDS[key]:.1e}")
        # sigma = -1 must be the exact negation of sigma = +1
        neg = float(np.max(np.abs(out["K_gauss_neg"] + out["K_gauss"])))
        worst["gauss_sig"] = max(worst["gauss_sig"], neg)
        if neg != 0.0:
            failures.append(f"case {i}: sigma=-1 differs from negation by {neg:.3e}")
    return failures, worst


def fingerprint(out: dict) -> bytes:
    """Bytes that two rounds of identical work reproduce exactly."""
    parts = []
    for key in sorted(out):
        val = out[key]
        parts.append(key.encode())
        parts.append(np.asarray(val, dtype=float).tobytes() if key != "admissible"
                     else repr(val).encode())
    return b"".join(parts)
