"""Run one workload of the revolve benchmark and print its result.

    python3 revbench/run.py --workload {sweep,surface,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. The
workload's inputs are made from --seed. After set-up the command repeats
rounds of the same operations for about --seconds, checks the first
round's outputs against computations made apart from the program, and checks
that every later round reproduced them exactly. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb).
--trace 1 spends half the time on untraced rounds and half on traced ones,
and reports the per-layer metrics plus the tracing overhead. Result files go
to revbench/out/.
"""
import time

T0 = time.perf_counter()   # set-up is timed from here

import argparse          # noqa: E402
import importlib         # noqa: E402
import json              # noqa: E402
import os                # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import sys               # noqa: E402

import spans             # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {"sweep": "sweep", "surface": "surface", "cli": "chain"}

TIME_METRICS = [
    "expr.parse_s",
    "momentum.build_kp_s", "momentum.build_km_s", "momentum.build_mean_s",
    "momentum.build_gauss_s", "momentum.admissible_s",
    "curvature.pointwise_s", "curvature.gauss_from_mean_s",
    "curvature.constraint_residual_s",
    "reconstruct.integrate_profile_s", "reconstruct.graph_height_s",
    "reconstruct.quadrature_routes_s", "reconstruct.discrete_s",
    "mesh.revolve_s", "mesh.curvature_s", "mesh.topology_s",
    "mesh.write_obj_s", "mesh.write_stl_s",
    "cli.import_s", "cli.prescribe_s", "cli.catalog_build_s", "cli.profile_s",
    "cli.mesh_s", "cli.verify_s", "cli.catalog_list_s",
]
COUNT_METRICS = {
    "momentum.integrand_calls": "count",
    "reconstruct.flow_deriv_calls": "count",
    "reconstruct.turning_points": "count",
    "mesh.triangles": "count",
    "mesh.output_bytes": "bytes",
}


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB


def _run_round(wl, rv, state, tr, index, failures):
    """One round of every operation. Returns (seconds, outputs, failed)."""
    tr.start_round(index)
    outputs, failed = [], 0
    t0 = time.perf_counter()
    for op in state["ops"]:
        try:
            outputs.append(wl.run_op(rv, op, tr))
        except Exception as exc:   # one failed operation must not end the run
            failed += 1
            outputs.append(None)
            failures.append(f"round {index}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outputs, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "revolve", "__init__.py")):
        print(f"error: no revolve package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import revolve as rv
    if not os.path.abspath(rv.__file__).startswith(SRC + os.sep):
        print(f"error: imported revolve from {rv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    wl = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    state = wl.setup(args.seed, workdir)
    setup_s = time.perf_counter() - T0

    problems: list[str] = []        # op failures, kept apart from check failures
    check_failures: list[str] = []
    attempted = failed = 0
    tracer = spans.Tracer()
    phases = [("timed", spans.NULL, args.seconds)]
    if args.trace:
        phases = [("untraced", spans.NULL, args.seconds / 2.0),
                  ("traced", tracer, args.seconds / 2.0)]
    round_s: dict[str, list[float]] = {name: [] for name, _, _ in phases}
    reference = worst = peak_rss = None
    index = 0
    for name, tr, budget in phases:
        t_phase = time.perf_counter()
        while True:
            dt, outputs, n_failed = _run_round(wl, rv, state, tr, index, problems)
            round_s[name].append(dt)
            attempted += len(outputs)
            failed += n_failed
            if tr is tracer and args.workload == "cli":
                wl.time_import(state, tr)
            prints = [None if o is None else wl.fingerprint(o) for o in outputs]
            if reference is None:
                # peak memory of set-up and one round, before any check runs
                peak_rss = _peak_rss_mb(children=args.workload == "cli")
                reference = prints
                try:
                    check_failures, worst = wl.check(state, outputs)
                except Exception as exc:   # a check that cannot run has failed
                    check_failures = [f"check raised {type(exc).__name__}: {exc}"]
            elif prints != reference:
                check_failures.append(f"round {index} did not reproduce round 0")
            del outputs
            index += 1
            # start another round only if it should end within half a round
            # of the phase's end, so a run lasts about --seconds
            elapsed = time.perf_counter() - t_phase
            if elapsed + 0.5 * statistics.median(round_s[name]) >= budget:
                break

    wall_s = statistics.median(round_s[phases[0][0]])
    if args.trace:
        layer, steady = tracer.layer_metrics(TIME_METRICS, list(COUNT_METRICS))
        if not steady:
            check_failures.append("a traced count differed between rounds")
        metrics = {k: {"value": layer[k], "unit": "s"} for k in TIME_METRICS}
        metrics.update({k: {"value": layer[k], "unit": u} for k, u in COUNT_METRICS.items()})
        overhead = statistics.median(round_s["traced"]) - wall_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss, "unit": "MB"}}

    correct = not check_failures
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "round_s": round_s, "ops_per_round": len(state["ops"]),
              "worst": worst, "check_failures": check_failures,
              "op_failures": problems, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in check_failures[:20] + problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
