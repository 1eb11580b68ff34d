"""Self-test of the benchmark's checks: each must pass on the program's real
outputs and trip when one of its inputs is corrupted.

    python3 revbench/selftest.py

Run from the root of a checkout. It runs one sweep case and the three
surfaces once, then feeds every check a clean copy and corrupted copies of
their outputs; the cli checks get synthetic files. Exits 1 if a clean input
fails or a corruption passes, so no check passes whatever the program
outputs.
"""
import copy
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import revolve as rv   # noqa: E402

import chain           # noqa: E402
import geometry        # noqa: E402
import spans           # noqa: E402
import surface         # noqa: E402
import sweep           # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, failures: list, trips: bool, key: str = "") -> None:
    """Record whether ``failures`` tripped (mentioning ``key``) as wanted."""
    tripped = any(key in f for f in failures) if trips else bool(failures)
    ok = tripped == trips
    RESULTS.append((label, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'tripped' if tripped else 'passed'}"
          + ("" if ok or not failures else f" ({failures[0]})"))


def sweep_checks() -> None:
    state = sweep.setup(1, None)
    case = state["ops"][0]
    one = {"ops": [case]}
    clean = sweep.run_op(rv, case, spans.NULL)
    expect("sweep clean case", sweep.check(one, [clean])[0], trips=False)
    interior = slice(2, -2)

    def corrupt(key, edit):
        out = copy.deepcopy(clean)
        edit(out)
        expect(f"sweep {key}", sweep.check(one, [out])[0], trips=True, key=key)

    def add(name, delta, where=slice(None)):
        def edit(out):
            arr = np.array(out[name], dtype=float)
            if arr.ndim == 0:
                arr = arr + delta
            else:
                arr[where] += delta
            out[name] = arr
        return edit

    away = np.flatnonzero(np.abs(case.K(sweep.XS)) > 0.05)[:1]
    corrupt("kp_rel", add("K_kp", 1e-6))
    corrupt("kp_K", add("K_kp", 1e-12, 0))
    corrupt("km_K", add("K_km", 1e-6))
    corrupt("mean_K", add("K_mean", 1e-6))
    corrupt("mean_H", add("H_mean", 1e-6))
    corrupt("gauss_K", add("K_gauss", 1e-5, away))
    corrupt("gauss_G", add("G_gauss", 1e-6, away))
    corrupt("ident_H", add("H_kp", 1e-12, 0))
    corrupt("ident_G", add("G_kp", 1e-12, 0))
    corrupt("kp_H", add("H_kp", 1e-9, 0))
    corrupt("kp_G", add("G_kp", 1e-9, 0))
    corrupt("gfm", add("gfm", 1e-8, 0))
    corrupt("gfm_exact", add("gfm", 1e-6, 0))
    corrupt("constraint", add("residual", 1e-8, 0))
    corrupt("arc_add", add("arc", 1e-9, 0))
    corrupt("ode_z", add("flow_dz", 1e-8))
    corrupt("graph_z", add("graph_dz", 1e-8))
    corrupt("round_A", add("profile_K", 1e-5, interior))
    corrupt("round_B", add("sample_k_m", 1e-3, interior))
    corrupt("sigma=-1", add("K_gauss_neg", 1e-15, 0))
    corrupt("admissible_intervals", lambda out: out.update(admissible=[(0.3, 1.6)]))


def surface_checks() -> None:
    state = surface.setup(1, None)
    for spec in state["ops"]:
        name = spec["name"]
        clean = surface.run_op(rv, spec, spans.NULL)
        expect(f"surface {name} clean", surface.check_surface(spec, clean)[0], trips=False)
        mesh = clean["mesh"]
        inner = mesh.rings[len(mesh.rings) // 2 + 1][0]

        def corrupt(label, key, edit):
            out = dict(clean)
            edit(out)
            expect(f"surface {name} {label}", surface.check_surface(spec, out)[0],
                   trips=True, key=key)

        def edit_mesh(out, triangles):
            out["mesh"] = copy.copy(mesh)
            out["mesh"].triangles = triangles

        def bump(field, delta):
            def edit(out):
                out[field] = out[field].copy()
                out[field][inner] += delta
            return edit

        corrupt("program chi", "chi", lambda out: out.update(chi=clean["chi"] + 1))
        corrupt("boundary loops", "boundary loops",
                lambda out: out.update(loops=clean["loops"] + 1))
        corrupt("dropped triangle", "chi",
                lambda out: edit_mesh(out, mesh.triangles[1:]))
        corrupt("discrete H", "discrete H", bump("H", 0.05))
        corrupt("discrete K_G", "discrete K_G", bump("K", 5.0))
        corrupt("shifted OBJ vertex", "OBJ vertices",
                lambda out: out.update(obj=_shift_first_vertex(clean["obj"])))
        corrupt("dropped OBJ face", "OBJ faces", lambda out: out.update(
            obj=clean["obj"][:clean["obj"].rindex("\nf ") + 1]))
        corrupt("short STL", "STL", lambda out: out.update(stl=clean["stl"][:-50]))
        gb = geometry.gauss_bonnet_error(mesh.vertices, mesh.triangles[1:], clean["K"],
                                         surface.EXPECTED_TOPOLOGY[name][0])
        expect(f"surface {name} Gauss-Bonnet without one triangle",
               [f"gauss_bonnet {gb:.3e}"] if gb > surface.GAUSS_BONNET_BOUND else [],
               trips=True, key="gauss_bonnet")


def _shift_first_vertex(obj: str) -> str:
    """Move the first vertex of an OBJ text by 1e-9 along x."""
    i = obj.index("\nv ") + 3
    j = obj.index(" ", i)
    return obj[:i] + repr(float(obj[i:j]) + 1e-9) + obj[j:]


def cli_checks() -> None:
    tmp = os.path.join(HERE, "out", "selftest")
    os.makedirs(tmp, exist_ok=True)
    z = np.linspace(-1.0, 1.0, 201)
    x, tx = np.cosh(z - 0.3), np.tanh(z - 0.3)
    rows = ["s,x,z,tx,tz"] + [f"0,{a:.17g},{b:.17g},{c:.17g},0"
                              for a, b, c in zip(x, z, tx)]
    text = "\n".join(rows) + "\n"
    expect("cli catenoid cosh clean",
           [] if chain.check_catenoid_profile(text) <= chain.CATENOID_BOUND else ["cosh"],
           trips=False)
    rows[100] = f"0,{x[99] + 1e-6:.17g},{z[99]:.17g},{tx[99]:.17g},0"
    err = chain.check_catenoid_profile("\n".join(rows) + "\n")
    expect("cli catenoid cosh", ["cosh"] if err > chain.CATENOID_BOUND else [],
           trips=True, key="cosh")

    bounds = chain.VERIFY_BOUNDS["catenoid"]
    op = {"chain": "catenoid", "out": tmp, "stage": "verify", "argv": [],
          "files": ["verify.json"]}

    def verify(checks):
        with open(os.path.join(tmp, "verify.json"), "w") as fh:
            json.dump({"checks": checks}, fh)
        return chain.check({}, [{"op": op, "stdout": ""}])[0]

    good = {k: v / 10.0 for k, v in bounds.items()}
    expect("cli verify.json clean", verify(good), trips=False)
    expect("cli verify.json above bound", verify({**good, "unit_speed": 1.0}),
           trips=True, key="unit_speed")
    expect("cli verify.json not finite", verify({**good, "discrete_mean": math.nan}),
           trips=True, key="discrete_mean")
    expect("cli verify.json missing check",
           verify({k: v for k, v in good.items() if k != "mean_roundtrip"}),
           trips=True, key="mean_roundtrip")

    listing = {"op": {"stage": "catalog_list"}, "stdout": '{"name": "plane"}\n'}
    expect("cli catalog list clean", chain.check({}, [listing])[0], trips=False)
    expect("cli catalog list without names",
           chain.check({}, [{"op": listing["op"], "stdout": '{"label": null}\n'}])[0],
           trips=True, key="catalog list")
    try:
        chain._stage(["verify", "--out", os.path.join(tmp, "no-such-state")])
        failures = []
    except RuntimeError as exc:
        failures = [str(exc)]
    expect("cli stage exit code", failures, trips=True, key="exited 2")


def main() -> int:
    sweep_checks()
    surface_checks()
    cli_checks()
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} self-test checks behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
