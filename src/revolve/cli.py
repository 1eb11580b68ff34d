"""Command-line front end.

Subcommands drive the pipeline out of a state directory (--out): `prescribe`
or `catalog build` persist a momentum description to momentum.json, then
`profile`, `mesh` and `verify` consume it. Each file is written under a
temporary name and renamed onto its own once complete, so a failing run
leaves no partial file: the small artifacts are computed in memory first,
and `mesh` streams its OBJ or STL to disk as it renders it.

Each subcommand imports the modules it runs inside its ``_cmd_*``, so a
stage process loads only those: ``mesh`` reads profile.csv without the
momentum and trace layers, and only a catalog state loads the catalog.

Exit codes: 0 success, 1 verification tolerance exceeded (only with
--tol-verify), 2 validation errors, 3 numerical failures. Every tolerance
flag a stage takes must be finite and positive, whether or not that stage
uses it, or the stage exits 2 before any work; so does `verify` given only
one of --expr-h and --expr-kg, which its constraint check takes together,
or --gamma-h, --c-g or --param, which only that check reads, without both.

REVOLVE_THREADS caps internal parallelism; the current implementation is
sequential, which satisfies any cap, and output never depends on it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ParamOutOfRange, RevolveError, ValidationError

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .momentum import Momentum
    from .reconstruct import Profile

    # what _write_all takes for one file
    Content = str | bytes | bytearray | memoryview | Iterable[bytes]

_STATE = "momentum.json"


def _parse_params(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValidationError(f"--param expects name=value, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValidationError(f"--param {name}: {value!r} is not a number") from None
    return out


def _parse_domain(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValidationError(f"--domain expects lo:hi, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"--domain bounds must be numbers, got {text!r}") from None


# each tolerance flag a stage may take, by its argparse name
_TOLERANCES = {"tol_quad": "quadrature", "tol_ode": "trace", "tol_verify": "verification"}


def _check_tolerances(args) -> None:
    """ParamOutOfRange unless every tolerance flag the stage took is finite
    and positive, whatever the stage and the kind of its state go on to use."""
    for key, what in _TOLERANCES.items():
        v = getattr(args, key, None)
        if v is not None and not (math.isfinite(v) and v > 0.0):
            raise ParamOutOfRange(f"tolerances must be finite and positive: "
                                  f"--{key.replace('_', '-')}, the {what} tolerance, "
                                  f"got {v!r}")


def _write_all(outdir: str, files: dict[str, Content]) -> None:
    """Write each file into outdir: a str as UTF-8, a bytes-like object as
    it is, and any other iterable of bytes piece by piece, as it yields
    them, so a streamed file is never whole in memory. Each file goes to a
    temporary name in outdir and is moved onto its own name by os.replace
    once complete; if the write or a piece fails, the temporary file is
    removed and the file of that name is left as it was."""
    os.makedirs(outdir, exist_ok=True)
    for name, content in files.items():
        tmp = os.path.join(outdir, f".{name}.{os.getpid()}.tmp")
        if isinstance(content, str):
            content = content.encode("utf-8")
        try:
            with open(tmp, "wb") as fh:
                if isinstance(content, (bytes, bytearray, memoryview)):
                    fh.write(content)
                else:
                    fh.writelines(content)
            os.replace(tmp, os.path.join(outdir, name))
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


def _dump_json(obj: dict, name: str) -> str:
    """obj as the strict JSON of the file name; ValidationError naming the
    first field that holds a number strict JSON has not (nan or inf)."""
    for key, v in sorted(obj.items()):
        try:
            json.dumps(v, allow_nan=False)
        except ValueError:
            raise ValidationError(f"{name}: {key!r} must hold finite numbers, "
                                  f"got {v!r}") from None
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _required(state: dict, key: str):
    try:
        return state[key]
    except KeyError:
        raise ValidationError(f"{_STATE} has no {key!r}") from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_FIELDS = {  # what each field of a state file must hold where it is present
    "name": (lambda v: isinstance(v, str), "a string"),
    "expr": (lambda v: isinstance(v, str), "a string"),
    "params": (lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
               "an object of numbers"),
    "domain": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
               "[lo, hi]"),
    "const": (_is_number, "a number"),
    "anchor": (lambda v: v is None or _is_number(v), "a number or null"),
    "sign": (lambda v: _is_number(v) and v in (1, -1), "1 or -1"),
}


def _momentum_from_state(state: dict, tol: float) -> Momentum:
    """The momentum a state file describes; each field is checked against
    _FIELDS before any constructor runs."""
    for key, (ok, what) in _FIELDS.items():
        if key in state and not ok(state[key]):
            raise ValidationError(f"{_STATE}: {key!r} must be {what}, got {state[key]!r}")
    if state.get("source") == "catalog":
        from . import catalog as cat
        # the stages that load a state read its momentum, not its closed profile
        entry = cat._build(_required(state, "name"), state.get("params", {}), sample=False)
        if entry.momentum is None:
            raise ValidationError(
                f"catalog entry {state['name']!r} is momentum-exempt; "
                "no pipeline can run on it")
        return entry.momentum
    from .expr import parse_expr
    from .momentum import (momentum_from_gauss, momentum_from_km, momentum_from_kp,
                           momentum_from_mean)
    kind = _required(state, "kind")
    expression = parse_expr(_required(state, "expr"))
    params = state.get("params", {})
    f = expression.as_function(params)
    df = expression.derivative().as_function(params)
    domain = tuple(_required(state, "domain"))
    const = float(state.get("const", 0.0))
    anchor = state.get("anchor")
    anchor = None if anchor is None else float(anchor)
    if kind == "kp":
        return momentum_from_kp(f, domain, p_deriv=df)
    if kind == "km":
        return momentum_from_km(f, const, domain, anchor=anchor, tol=tol)
    if kind == "mean":
        return momentum_from_mean(f, const, domain, anchor=anchor, tol=tol)
    if kind == "gauss":
        return momentum_from_gauss(f, const, int(state.get("sign", 1)), domain,
                                   anchor=anchor, tol=tol)
    raise ValidationError(f"unknown prescription kind {kind!r}")


def _load_state(outdir: str) -> dict:
    path = os.path.join(outdir, _STATE)
    if not os.path.exists(path):
        raise ValidationError(f"no {_STATE} in {outdir!r}; run prescribe or "
                              "catalog build first")
    with open(path, encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(state, dict):
        raise ValidationError(f"{path} holds no JSON object")
    return state


def _default_start(m: Momentum) -> float:
    from .momentum import admissible_intervals
    intervals = admissible_intervals(m)
    if not intervals:
        raise ValidationError("momentum has no admissible interval with |K| < 1")
    a, b = intervals[0]
    return 0.5 * (a + b)


def _integrate(m: Momentum, args) -> Profile:
    from .reconstruct import integrate_profile
    start = args.start if args.start is not None else _default_start(m)
    return integrate_profile(m, start, direction=args.direction,
                             s_max=args.smax, s_min=args.smin,
                             samples_per_branch=args.samples, rtol=args.tol_ode)


# ------------------------------------------------------------- subcommands

def _cmd_prescribe(args) -> int:
    from .expr import parse_expr
    from .momentum import admissible_intervals
    params = _parse_params(args.param)
    domain = _parse_domain(args.domain)
    expression = parse_expr(args.expr)
    state = {
        "source": "prescription",
        "kind": args.kind,
        "expr": expression.pretty(),
        "params": params,
        "const": args.const,
        "sign": args.sign,
        "domain": list(domain),
        "anchor": args.anchor,
    }
    m = _momentum_from_state(state, args.tol_quad)
    state["admissible"] = [[a, b] for a, b in admissible_intervals(m)]
    _write_all(args.out, {_STATE: _dump_json(state, _STATE)})
    print(f"momentum stored in {os.path.join(args.out, _STATE)}")
    return 0


def _cmd_profile(args) -> int:
    from .reconstruct import profile_to_csv
    state = _load_state(args.out)
    m = _momentum_from_state(state, args.tol_quad)
    p = _integrate(m, args)
    _write_all(args.out, {"profile.csv": profile_to_csv(p)})
    print(f"profile: {len(p)} samples, {len(p.branch_events)} turning point(s)")
    return 0


def _cmd_mesh(args) -> int:
    from .mesh import _obj_pieces, revolve, write_stl
    path = os.path.join(args.out, "profile.csv")
    if not os.path.exists(path):
        raise ValidationError(f"no profile.csv in {args.out!r}; run profile first")
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if not any(row.strip() for row in rows):
        raise ValidationError(f"{path} has no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if data.shape[1] != 5:
        raise ValidationError(f"{path} needs the five columns s,x,z,tx,tz, "
                              f"got {data.shape[1]}")
    _, x, z, tx, tz = data.T  # revolve reads only x, z, tx and tz
    mesh = revolve(SimpleNamespace(x=x, z=z, tx=tx, tz=tz), n_theta=args.ntheta)
    if args.format == "obj":
        _write_all(args.out, {"surface.obj": _obj_pieces(mesh)})
    else:
        _write_all(args.out, {"surface.stl": write_stl(mesh)})
    print(f"mesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
    return 0


def _worst(err: np.ndarray) -> float:
    """max |err|, 0 for no values; a NaN anywhere makes it NaN."""
    return float(np.max(np.abs(err), initial=0.0))


def _cmd_verify(args) -> int:
    if (args.expr_h is None) != (args.expr_kg is None):
        given, missing = (("--expr-h", "--expr-kg") if args.expr_kg is None
                          else ("--expr-kg", "--expr-h"))
        raise ValidationError(f"the constraint check needs both --expr-h and "
                              f"--expr-kg: {given} was given without {missing}")
    unused = [flag for flag, value in (("--gamma-h", args.gamma_h), ("--c-g", args.c_g),
                                       ("--param", args.param)) if value is not None]
    if args.expr_h is None and unused:
        raise ValidationError(f"{', '.join(unused)} only serve the constraint check, "
                              f"which needs --expr-h and --expr-kg; neither was given")
    from .curvature import (constraint_residual, gauss_curvature, mean_curvature,
                            weingarten_residual)
    from .expr import parse_expr
    from .mesh import discrete_mesh_curvature, revolve
    from .momentum import momentum_from_gauss, momentum_from_mean
    from .quadrature import takes_arrays
    from .reconstruct import momentum_of_profile
    if args.grid < 2:
        raise ParamOutOfRange(f"--grid must be at least 2, got {args.grid}")
    state = _load_state(args.out)
    m = _momentum_from_state(state, args.tol_quad)
    lo, hi = m.domain
    p = _integrate(m, args)
    # the grid spans the x the trace visited, inside the band where |K| < 1;
    # the rest of the domain may hold |K| > 1, where no rebuild need converge
    x_lo, x_hi = float(np.min(p.x)), float(np.max(p.x))
    pad = 1e-3 * (x_hi - x_lo)
    side = 1.0 if x_hi > 0.0 else -1.0  # the checks keep to x > 0 where the band has it
    grid = np.linspace((max(x_lo, 0.0) if side > 0.0 else x_lo) + pad, x_hi - pad, args.grid)
    checks: dict[str, float] = {}

    xs, ks = momentum_of_profile(p)
    interior = slice(2, -2)
    checks["momentum_roundtrip"] = _worst(ks[interior] - m.sample(xs[interior]))
    checks["unit_speed"] = _worst(p.tx ** 2 + p.tz ** 2 - 1.0)

    # dual-route momentum rebuilds from the derived H and K_G
    ref = float(grid[0])
    h_star = takes_arrays(lambda x: mean_curvature(m, x))
    m_h = momentum_from_mean(h_star, ref * m.eval(ref), (ref, float(grid[-1])),
                             tol=args.tol_quad)
    checks["mean_roundtrip"] = _worst(m_h.sample(grid) - m.sample(grid))
    g_star = takes_arrays(lambda x: gauss_curvature(m, x))
    m_g = momentum_from_gauss(g_star, m.eval(ref) ** 2, 1, (ref, float(grid[-1])),
                              tol=args.tol_quad)
    checks["gauss_roundtrip"] = _worst(gauss_curvature(m_g, grid) - g_star(grid))

    mesh = revolve(p, n_theta=args.ntheta)
    H_disc, K_disc = discrete_mesh_curvature(mesh)
    # interior rings off the axis on the checked side, their neighbours not
    # across it (mirrored there), away from |K| = 1, one row per ring
    rings, sx = np.arange(1, len(mesh.rings) - 1), side * p.x
    rings = rings[(sx[rings] >= 1e-9) & (np.minimum(sx[rings - 1], sx[rings + 1]) > -1e-12)]
    rings = rings[~(1.0 - m.sample(p.x[rings]) ** 2 < 1e-6)]
    xr = p.x[rings]
    idx = np.array([mesh.rings[i] for i in rings.tolist()],
                   dtype=np.int64).reshape(-1, mesh.n_theta)
    # relative to max(1, |analytic|): K_G = K K'/x diverges where K(0) != 0 on the axis
    for key, disc, exact in (("discrete_mean", H_disc, mean_curvature(m, xr)[:, None]),
                             ("discrete_gauss", K_disc, gauss_curvature(m, xr)[:, None])):
        checks[key] = _worst((disc[idx] - exact) / np.maximum(1.0, np.abs(exact)))

    if args.q is not None:
        checks["weingarten"] = _worst(weingarten_residual(m, args.q, grid))
    if args.expr_h is not None:
        params = _parse_params(args.param)
        fh = parse_expr(args.expr_h).as_function(params)
        fg = parse_expr(args.expr_kg).as_function(params)
        # constants are read against the momentum domain's left end, 0 if not given
        gamma_h, c_g = (0.0 if c is None else c for c in (args.gamma_h, args.c_g))
        checks["constraint"] = _worst(constraint_residual(
            fh, fg, gamma_h, c_g, grid, (lo, hi), anchor=lo))

    # a check that is not a number (the Gauss rebuild of the plane is 0/0)
    # is written as null: strict JSON has no NaN
    report = {"checks": {k: v if math.isfinite(v) else None for k, v in checks.items()},
              "domain": [lo, hi], "grid": args.grid,
              "samples": len(p), "turning_points": p.branch_events}
    text = _dump_json(report, "verify.json")
    _write_all(args.out, {"verify.json": text})
    sys.stdout.write(text)
    if args.tol_verify is not None:
        core = np.array([checks["momentum_roundtrip"], checks["unit_speed"]])
        if not np.all(core <= args.tol_verify):  # a NaN fails
            print(f"verification exceeded --tol-verify: {np.max(core):.3e} > "
                  f"{args.tol_verify:.3e}", file=sys.stderr)
            return 1
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog as cat
    if args.action == "list":
        for entry in cat.list_entries():
            print(json.dumps(entry.to_json_dict(), sort_keys=True))
        return 0
    if not args.name:
        raise ValidationError("catalog build needs an entry name")
    if not args.out:
        raise ValidationError("catalog build needs --out")
    params = _parse_params(args.param)
    entry = cat.build(args.name, **params)
    state = {"source": "catalog", "name": args.name, "params": params}
    files: dict[str, Content] = {
        _STATE: _dump_json(state, _STATE),
        "entry.json": _dump_json(entry.to_json_dict(), "entry.json"),
    }
    if entry.closed_profile is not None:
        from ._records import records
        ts, xs, zs = entry.closed_profile._sample()
        files["closed_profile.csv"] = records("%.17g,%.17g,%.17g\n", (ts, xs, zs),
                                              head="t,x,z\n")
    _write_all(args.out, files)
    print(f"catalog entry {args.name!r} stored in {args.out}")
    return 0


def _cmd_classify(args) -> int:
    from .curvature import classify_mean_inverse
    branch = classify_mean_inverse(args.mu)
    if branch.angle is None:
        print(branch.kind)
    else:
        name = "theta" if branch.kind == "Trigonometric" else "delta"
        print(f"{branch.kind} {name}={branch.angle:.17g}")
    return 0


# ------------------------------------------------------------------ parser

def _add_state_opts(sp) -> None:
    sp.add_argument("--out", required=True,
                    help="state/artifact directory")
    sp.add_argument("--tol-quad", type=float, default=1e-12,
                    help="antiderivative tolerance (default 1e-12)")


def _add_flow_opts(sp) -> None:
    sp.add_argument("--start", type=float, default=None,
                    help="initial x (default: midpoint of the first admissible interval)")
    sp.add_argument("--direction", type=int, choices=(1, -1), default=1,
                    help="initial sign of dx/ds")
    sp.add_argument("--smax", type=float, default=10.0, help="forward arclength cap")
    sp.add_argument("--smin", type=float, default=0.0,
                    help="backward arclength cap (negative)")
    sp.add_argument("--samples", type=int, default=512,
                    help="samples per monotone branch")
    sp.add_argument("--tol-ode", type=float, default=1e-10,
                    help="trace tolerance: relative to the band's width, per "
                         "quadrature panel (default 1e-10)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revolve",
        description="Synthesize rotational surfaces from curvature functions "
                    "of the distance x to the axis, reconstruct their "
                    "generating curves, and verify the results.",
        epilog="REVOLVE_THREADS caps internal parallelism (the implementation "
               "is sequential, so any cap is honored).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prescribe", help="turn a curvature expression into a momentum")
    sp.add_argument("--kind", required=True, choices=("kp", "km", "mean", "gauss"),
                    help="which curvature the expression prescribes")
    sp.add_argument("--expr", required=True, help="curvature expression in x")
    sp.add_argument("--const", type=float, default=0.0,
                    help="integration constant (km/mean/gauss kinds)")
    sp.add_argument("--sign", type=int, choices=(1, -1), default=1,
                    help="sign branch for the gauss kind")
    sp.add_argument("--domain", required=True, help="x interval as lo:hi")
    sp.add_argument("--anchor", type=float, default=None,
                    help="antiderivative anchor (default: left endpoint)")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="expression parameter (repeatable)")
    _add_state_opts(sp)
    sp.set_defaults(func=_cmd_prescribe)

    sp = sub.add_parser("profile", help="trace the generating curve")
    _add_state_opts(sp)
    _add_flow_opts(sp)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("mesh", help="revolve the traced profile into a mesh")
    sp.add_argument("--ntheta", type=int, default=64, help="ring resolution")
    sp.add_argument("--format", choices=("obj", "stl"), default="obj")
    sp.add_argument("--out", required=True, help="state/artifact directory")
    sp.set_defaults(func=_cmd_mesh)

    sp = sub.add_parser("verify", help="run residual checks, write verify.json")
    _add_state_opts(sp)
    _add_flow_opts(sp)
    sp.add_argument("--grid", type=int, default=100, help="verification grid size")
    sp.add_argument("--ntheta", type=int, default=64,
                    help="mesh resolution for discrete checks")
    sp.add_argument("--q", type=float, default=None,
                    help="check the relation k_m = q*k_p")
    sp.add_argument("--expr-h", default=None, help="mean curvature expression")
    sp.add_argument("--expr-kg", default=None, help="Gauss curvature expression")
    sp.add_argument("--gamma-h", type=float, default=None,
                    help="antiderivative constant paired with --expr-h (default 0)")
    sp.add_argument("--c-g", type=float, default=None,
                    help="antiderivative constant paired with --expr-kg (default 0)")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="parameters for --expr-h/--expr-kg")
    sp.add_argument("--tol-verify", type=float, default=None,
                    help="exit 1 if core residuals exceed this")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("catalog", help="list closed-form families or build one")
    sp.add_argument("action", choices=("list", "build"))
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--out", default=None, help="state directory (build)")
    sp.add_argument("--tol-quad", type=float, default=1e-12, help="unused")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("classify-mean-inverse",
                        help="branch of the mean-curvature family mu/x")
    sp.add_argument("--mu", type=float, required=True)
    sp.set_defaults(func=_cmd_classify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    threads = os.environ.get("REVOLVE_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(f"error: REVOLVE_THREADS must be a positive integer, "
                  f"got {threads!r}", file=sys.stderr)
            return 2
    try:
        _check_tolerances(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except RevolveError as exc:  # defensive: the taxonomy above is exhaustive
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
