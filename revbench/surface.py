"""The ``surface`` workload: a few long surfaces traced, revolved and written.

Three prescriptions given as Python callables, the library route:

* a sphere from k_p = 1/R (K = x/R), traced pole to pole;
* a Delaunay unduloid from H = 1 with constant c, over several periods;
* a catenoid from k_p = 1/x^2, traced from x = b through its waist back to b.

Each profile is revolved at a large n_theta, then goes through
``discrete_mesh_curvature``, ``euler_characteristic``/``boundary_loops``,
``write_obj`` and ``write_stl``. One operation is one surface. Nearly all the
time goes to mesh.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

import geometry

N_THETA = 128
SAMPLES = {"sphere": 200, "unduloid": 48, "catenoid": 200}   # per branch
UNDULOID_BRANCHES = 8   # monotone branches of the unduloid profile

# Discrete H and K_G on interior rings against the closed forms, as
# |discrete - closed| / max(1, |closed|): the unduloid's neck has |K_G| near
# 25. The errors scale with the square of the ring spacing; the bounds leave
# a margin over the worst value seen at these resolutions (README).
CURVATURE_BOUNDS = {"sphere": (2e-3, 2e-3), "unduloid": (1e-2, 5e-2),
                    "catenoid": (2e-3, 2e-3)}
GAUSS_BONNET_BOUND = 1e-9   # sum of K_G times mixed area against 2*pi*chi
VERTEX_BOUND = 1e-12        # OBJ vertex against the revolved profile sample
# Euler characteristic and boundary loops: a sphere and two annuli
EXPECTED_TOPOLOGY = {"sphere": (2, 0), "unduloid": (0, 2), "catenoid": (0, 2)}


def _unduloid_turns(c: float) -> tuple[float, float]:
    r = math.sqrt(1.0 - 4.0 * c)
    return 0.5 * (1.0 - r), 0.5 * (1.0 + r)


def unduloid_arclength(c: float, th0: float, th1: float) -> float:
    """Arclength of K = x + c/x between x(th0) and x(th1), with
    x(th) = x- + (x+ - x-)(1 - cos th)/2. The substitution turns the
    integrand 1/sqrt(1 - K^2) into the smooth sqrt(x/(1 + K)), which
    Gauss-Legendre integrates to rounding."""
    xm, xp = _unduloid_turns(c)
    t, w = np.polynomial.legendre.leggauss(64)
    th = th0 + 0.5 * (th1 - th0) * (t + 1.0)
    x = xm + (xp - xm) * 0.5 * (1.0 - np.cos(th))
    return float(0.5 * (th1 - th0) * np.sum(w * np.sqrt(x / (1.0 + x + c / x))))


def setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    R = float(rng.uniform(0.8, 1.25))
    c = float(rng.uniform(0.10, 0.14))
    b = float(rng.uniform(2.5, 3.5))
    xm, xp = _unduloid_turns(c)
    # start mid-band heading outwards; stop half-way along the last branch,
    # so the profile has UNDULOID_BRANCHES branches whatever c is
    half = unduloid_arclength(c, 0.0, math.pi)
    s_und = (unduloid_arclength(c, 0.5 * math.pi, math.pi)
             + (UNDULOID_BRANCHES - 1.5) * half)
    ops = [
        {"name": "sphere", "R": R, "kind": "kp",
         "prescription": lambda x, R=R: 1.0 / R, "domain": (0.0, R),
         "flow": {"start_x": 0.0, "s_max": math.pi * R + 1.0}},
        {"name": "unduloid", "c": c, "kind": "mean",
         "prescription": lambda x: 1.0, "domain": (0.5 * xm, 0.5 * (xp + 1.0)),
         "flow": {"start_x": 0.5 * (xm + xp), "s_max": s_und}},
        {"name": "catenoid", "b": b, "kind": "kp",
         "prescription": lambda x: 1.0 / x ** 2, "domain": (1.0, b),
         "flow": {"start_x": b, "direction": -1,
                  "s_max": 2.0 * math.sqrt(b * b - 1.0) + 1.0}},
    ]
    return {"ops": ops}


def run_op(rv, spec: dict, tr) -> dict:
    f = tr.wrap(spec["prescription"])
    with tr.span(f"momentum.build_{spec['kind']}_s"):
        if spec["kind"] == "kp":
            m = rv.momentum_from_kp(f, spec["domain"])
        else:
            m = rv.momentum_from_mean(f, spec["c"], spec["domain"], anchor=0.0)
    tr.take("momentum.integrand_calls", f)

    flow = rv.Momentum(m.eval, tr.wrap(m.deriv), m.domain)
    with tr.span("reconstruct.integrate_profile_s"):
        prof = rv.integrate_profile(flow, samples_per_branch=SAMPLES[spec["name"]],
                                    **spec["flow"])
    tr.take("reconstruct.flow_deriv_calls", flow.deriv)
    tr.count("reconstruct.turning_points", len(prof.branch_events))

    with tr.span("mesh.revolve_s"):
        mesh = rv.revolve(prof, n_theta=N_THETA)
    with tr.span("mesh.curvature_s"):
        H, K = rv.discrete_mesh_curvature(mesh)
    with tr.span("mesh.topology_s"):
        chi = mesh.euler_characteristic()
        loops = mesh.boundary_loops()
    with tr.span("mesh.write_obj_s"):
        obj = rv.write_obj(mesh)
    with tr.span("mesh.write_stl_s"):
        stl = rv.write_stl(mesh)
    tr.count("mesh.triangles", len(mesh.triangles))
    tr.count("mesh.output_bytes", len(obj) + len(stl))
    return {"profile": prof, "mesh": mesh, "H": H, "K": K, "chi": chi,
            "loops": loops, "obj": obj, "stl": stl}


def closed_forms(spec: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and Gauss curvature of the surface at distance x from the axis."""
    if spec["name"] == "sphere":
        R = spec["R"]
        return np.full_like(x, 1.0 / R), np.full_like(x, 1.0 / R ** 2)
    if spec["name"] == "unduloid":
        return np.ones_like(x), 1.0 - spec["c"] ** 2 / x ** 4
    return np.zeros_like(x), -1.0 / x ** 4


def check_surface(spec: dict, out: dict) -> tuple[list[str], dict]:
    name = spec["name"]
    prof, mesh = out["profile"], out["mesh"]
    failures: list[str] = []
    worst: dict[str, float] = {}

    chi_want, loops_want = EXPECTED_TOPOLOGY[name]
    chi_own = geometry.euler_characteristic(mesh.triangles, len(mesh.vertices))
    if (out["chi"], chi_own, out["loops"]) != (chi_want, chi_want, loops_want):
        failures.append(f"{name}: chi {out['chi']} (own count {chi_own}) and "
                        f"{out['loops']} boundary loops, want {chi_want} and {loops_want}")

    gb = geometry.gauss_bonnet_error(mesh.vertices, mesh.triangles, out["K"], chi_want)
    worst[f"{name}.gauss_bonnet"] = gb
    if not gb <= GAUSS_BONNET_BOUND:
        failures.append(f"{name}: Gauss-Bonnet off by {gb:.3e}")

    rings = geometry.interior_rings(prof.x, margin=3)
    x_ring = prof.x[rings]
    h_want, k_want = closed_forms(spec, x_ring)
    idx = np.array([mesh.rings[i] for i in rings])          # (rings, n_theta)
    dh = float(np.max(np.abs(out["H"][idx] - h_want[:, None])
                      / np.maximum(1.0, np.abs(h_want))[:, None]))
    dk = float(np.max(np.abs(out["K"][idx] - k_want[:, None])
                      / np.maximum(1.0, np.abs(k_want))[:, None]))
    worst[f"{name}.discrete_H"], worst[f"{name}.discrete_K"] = dh, dk
    bh, bk = CURVATURE_BOUNDS[name]
    if not dh <= bh:
        failures.append(f"{name}: discrete H off by {dh:.3e} (bound {bh:.0e})")
    if not dk <= bk:
        failures.append(f"{name}: discrete K_G off by {dk:.3e} (bound {bk:.0e})")

    verts, faces = geometry.parse_obj(out["obj"])
    dv = geometry.vertex_error(verts, prof.x, prof.z, N_THETA)
    worst[f"{name}.obj_vertex"] = dv
    if not dv <= VERTEX_BOUND:
        failures.append(f"{name}: OBJ vertices off the profile by {dv:.3e}")

    n_tri = geometry.expected_triangles(prof.x, N_THETA)
    stl = out["stl"]
    stl_count = int(np.frombuffer(stl[80:84], dtype="<u4")[0])
    if not (len(faces) == stl_count == len(mesh.triangles) == n_tri
            and len(stl) == 84 + 50 * n_tri):
        failures.append(f"{name}: {len(faces)} OBJ faces, {stl_count} STL "
                        f"triangles in {len(stl)} bytes; want {n_tri} and "
                        f"{84 + 50 * n_tri} bytes")
    return failures, worst


def check(state: dict, outputs: list) -> tuple[list[str], dict]:
    failures: list[str] = []
    worst: dict[str, float] = {}
    for spec, out in zip(state["ops"], outputs):
        if out is not None:
            f, w = check_surface(spec, out)
            failures += f
            worst.update(w)
    return failures, worst


def fingerprint(out: dict) -> bytes:
    h = hashlib.sha256()
    h.update(out["obj"].encode())
    h.update(out["stl"])
    h.update(np.nan_to_num(out["H"]).tobytes())
    h.update(out["K"].tobytes())
    h.update(repr((out["chi"], out["loops"])).encode())
    return h.digest()
