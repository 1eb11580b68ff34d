"""The ``cli`` workload: the README chain, each stage in a fresh process.

Four prescriptions go through ``prescribe`` (or ``catalog build``) ->
``profile`` -> ``mesh`` -> ``verify --tol-verify``, each stage a fresh
``python -m revolve.cli`` process, and ``catalog list`` runs once per round:

* the README catenoid, k_p = 1/x^2 on [1.001, 3];
* a Delaunay unduloid, H = 1 with constant c, anchored at 0;
* the arch K_G = 1/(4x), anchored at 0, on [0.001, 2];
* the catalog entry hopf_kuhnel with q = 2.

One operation is one stage process. Set-up runs the catenoid chain once,
untimed, which compiles the bytecode and fills the file cache. Imports are a
large share of every stage, so this is where process start-up shows.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from surface import unduloid_arclength

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = "128"      # --samples per branch
NTHETA = "48"        # --ntheta for mesh and verify
GRID = "50"          # --grid for verify
TOL_QUAD = "1e-10"   # --tol-quad for every stage that builds a momentum
STAGE_TIMEOUT = 120  # seconds; a stage that takes longer has failed

# verify.json checks: the bound each must meet, per prescription, and the
# --tol-verify each verify stage is given (it gates momentum_roundtrip and
# unit_speed). Set with a margin over the values at this commit, which the
# README records.
VERIFY_BOUNDS = {
    "catenoid": {"momentum_roundtrip": 1e-2, "unit_speed": 1e-12,
                 "mean_roundtrip": 1e-10, "gauss_roundtrip": 1e-10,
                 "discrete_mean": 2e-2, "discrete_gauss": 3e-2},
    "unduloid": {"momentum_roundtrip": 5e-3, "unit_speed": 1e-12,
                 "mean_roundtrip": 1e-10, "gauss_roundtrip": 1e-10,
                 "discrete_mean": 0.1, "discrete_gauss": 0.5},
    "arch": {"momentum_roundtrip": 3e-2, "unit_speed": 1e-12,
             "mean_roundtrip": 1e-9, "gauss_roundtrip": 1e-10,
             "discrete_mean": 0.1, "discrete_gauss": 5.0},
    "hopf_kuhnel": {"momentum_roundtrip": 3e-2, "unit_speed": 1e-12,
                    "mean_roundtrip": 1e-10, "gauss_roundtrip": 1e-10,
                    "discrete_mean": 5e-2, "discrete_gauss": 5e-2,
                    "weingarten": 1e-12},
}
CATENOID_BOUND = 1e-8    # profile.csv against x = cosh(z - z0)
_STATE = "momentum.json"


# the children import the checkout's program and nothing else
ENV = {k: v for k, v in os.environ.items() if k != "REVOLVE_THREADS"}
ENV["PYTHONPATH"] = os.path.join(ROOT, "src")


def _fmt(v: float) -> str:
    return repr(round(v, 6))


def _chains(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng(seed)
    start = float(rng.uniform(1.4, 1.6))
    c = float(rng.uniform(0.10, 0.14))
    arch_smax = float(rng.uniform(3.5, 4.5))
    a = float(rng.uniform(0.8, 1.2))
    r = math.sqrt(1.0 - 4.0 * c)
    xm, xp = 0.5 * (1.0 - r), 0.5 * (1.0 + r)
    # four monotone branches of the unduloid, whatever c is
    und_smax = (unduloid_arclength(c, 0.5 * math.pi, math.pi)
                + 2.5 * unduloid_arclength(c, 0.0, math.pi))
    common = ["--samples", SAMPLES, "--tol-quad", TOL_QUAD]
    specs = {
        "catenoid": (["prescribe", "--kind", "kp", "--expr", "1/x^2",
                      "--domain", "1.001:3"],
                     ["--start", _fmt(start), "--smax", "2.0", "--smin", "-2.0"], []),
        "unduloid": (["prescribe", "--kind", "mean", "--expr", "1", "--const", _fmt(c),
                      "--anchor", "0", "--domain", f"{_fmt(0.5 * xm)}:{_fmt(0.5 * (xp + 1))}"],
                     ["--smax", repr(und_smax)], []),
        "arch": (["prescribe", "--kind", "gauss", "--expr", "1/(4*x)", "--const", "0",
                  "--anchor", "0", "--domain", "0.001:2"],
                 ["--smax", _fmt(arch_smax), "--smin", "-3.0"], []),
        "hopf_kuhnel": (["catalog", "build", "hopf_kuhnel", "--param", "q=2",
                         "--param", f"a={_fmt(a)}"],
                        ["--smax", "1.0", "--smin", "-1.0"], ["--q", "2"]),
    }
    chains = []
    for name, (first, flow, extra) in specs.items():
        out = os.path.join(workdir, name)
        tol = VERIFY_BOUNDS[name]["momentum_roundtrip"]
        chains.append({"name": name, "out": out, "stages": [
            ("catalog_build" if first[0] == "catalog" else "prescribe",
             first + ["--out", out, "--tol-quad", TOL_QUAD], [_STATE]),
            ("profile", ["profile", "--out", out] + flow + common, ["profile.csv"]),
            ("mesh", ["mesh", "--out", out, "--ntheta", NTHETA], ["surface.obj"]),
            ("verify", ["verify", "--out", out] + flow + common + extra
             + ["--grid", GRID, "--ntheta", NTHETA, "--tol-verify", repr(tol)],
             ["verify.json"]),
        ]})
    return chains


def _op(chain: dict | None, stage: str, argv: list[str], files: list[str]) -> dict:
    return {"chain": chain["name"] if chain else None,
            "out": chain["out"] if chain else None,
            "stage": stage, "argv": argv, "files": files}


def setup(seed: int, workdir: str) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    chains = _chains(seed, workdir)
    ops = [_op(ch, stage, argv, files)
           for ch in chains for stage, argv, files in ch["stages"]]
    ops.append(_op(None, "catalog_list", ["catalog", "list"], []))
    # warm-up: the catenoid chain once, untimed, in a directory of its own
    warm = _chains(seed, os.path.join(workdir, "warmup"))[0]
    for _, argv, _ in warm["stages"]:
        _stage(argv)
    return {"ops": ops}


def _stage(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-m", "revolve.cli"] + argv,
                          env=ENV, cwd=ROOT, capture_output=True,
                          text=True, timeout=STAGE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"revolve {' '.join(argv[:3])} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def run_op(rv, op: dict, tr) -> dict:
    with tr.span(f"cli.{op['stage']}_s"):
        proc = _stage(op["argv"])
    return {"op": op, "stdout": proc.stdout}


def time_import(state: dict, tr) -> None:
    """Time a fresh-process ``import revolve`` as its own span."""
    with tr.span("cli.import_s"):
        subprocess.run([sys.executable, "-c", "import revolve"], env=ENV,
                       cwd=ROOT, check=True, timeout=STAGE_TIMEOUT)


def _read(out: dict) -> dict:
    op = out["op"]
    files = {}
    for name in op["files"]:
        with open(os.path.join(op["out"], name), "rb") as fh:
            files[name] = fh.read()
    return files


def fingerprint(out: dict) -> bytes:
    h = hashlib.sha256(out["stdout"].encode())
    for name, data in sorted(_read(out).items()):
        h.update(name.encode())
        h.update(data)
    return h.digest()


def check_catenoid_profile(csv_text: str) -> float:
    """Largest |x - cosh(z - z0)| over profile.csv, z0 fitted as a median.

    z - z0 = acosh(x) with the sign of dx/ds, since z rises along the curve
    (K = 1/x > 0) on both sides of the waist."""
    data = np.loadtxt(csv_text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    x, z, tx = data[:, 1], data[:, 2], data[:, 3]
    z0 = float(np.median(z - np.sign(tx) * np.arccosh(x)))
    return float(np.max(np.abs(x - np.cosh(z - z0))))


def check(state: dict, outputs: list) -> tuple[list[str], dict]:
    failures: list[str] = []
    worst: dict[str, float] = {}
    for out in outputs:
        if out is None:
            continue
        op = out["op"]
        if op["stage"] == "catalog_list":
            lines = out["stdout"].splitlines()
            names = {json.loads(line).get("name") for line in lines}
            worst["catalog_list.entries"] = float(len(lines))
            if not lines or None in names:
                failures.append("catalog list printed no entries or an entry without a name")
            continue
        files = _read(out)
        if op["stage"] == "profile" and op["chain"] == "catenoid":
            err = check_catenoid_profile(files["profile.csv"].decode())
            worst["catenoid.cosh"] = err
            if not err <= CATENOID_BOUND:
                failures.append(f"catenoid profile.csv off x = cosh(z - z0) by {err:.3e}")
        if op["stage"] == "verify":
            report = json.loads(files["verify.json"])
            bounds = VERIFY_BOUNDS[op["chain"]]
            checks = report["checks"]
            if set(checks) != set(bounds):
                failures.append(f"{op['chain']}: verify.json checks {sorted(checks)}, "
                                f"want {sorted(bounds)}")
            for key, bound in bounds.items():
                val = checks.get(key, math.nan)
                worst[f"{op['chain']}.{key}"] = val
                if not (math.isfinite(val) and val <= bound):
                    failures.append(f"{op['chain']}: verify {key} = {val!r} > {bound:.0e}")
    return failures, worst
