"""Command-line front end: instance tooling, solvers, model export, reports."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import baseline, exact, grasp, instancegen
from .model import (
    InfeasibleInstanceError,
    TwoEchoError,
    Variant,
    Violation,
    build_time_matrices,
    check_feasibility,
    evaluate,
    load_instance,
    load_solution,
    save_instance,
    save_report,
    save_solution,
)

CSV_HEADER = ["Data", "vt", "vd", "u", "TSP", "Vt", "Obj", "Td", "Tt", "Gap", "Time"]


class UsageError(TwoEchoError):
    """Bad command-line input; reported in one line with exit code 2."""


@contextmanager
def _usage():
    """Report a value that the library refuses while a command builds its
    configs and instances from the arguments, before any solving or file
    load, as a usage error."""
    try:
        yield
    except (ValueError, InfeasibleInstanceError, instancegen.GenerationError) as err:
        raise UsageError(str(err)) from None


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    raw = os.environ.get("TWOECHO_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TWOECHO_THREADS must be an integer, got {raw!r}") from None


def _grasp_config(args, variant: Variant, time_limit: float | None = None) -> grasp.GraspConfig:
    return grasp.GraspConfig(
        variant=variant, n_max=args.iters, seed=args.seed, time_limit=time_limit, threads=_threads(args)
    )


def _values(text: str, parse) -> list:
    values = [parse(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected one or more comma-separated values, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _values(text, int)


def _float_list(text: str) -> list[float]:
    return _values(text, float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoecho",
        description="Two-echelon truck-and-drone routing: generate, solve, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--d", type=float, required=True, help="square dimension in km")
    p.add_argument("--n", type=int, required=True, help="truck node count (total nodes with --coincident)")
    p.add_argument("--m", type=int, default=0, help="customer count (ignored with --coincident)")
    p.add_argument("--truck-speed", type=float, default=40.0)
    p.add_argument("--drone-speed", type=float, default=40.0)
    p.add_argument("--endurance", type=float, default=0.5)
    p.add_argument("--num-drones", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coincident", action="store_true", help="every non-depot node is also a customer")
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run the randomized multi-start solver")
    p.add_argument("instance")
    p.add_argument("--variant", default="m", help="s (one flight per drone per stop) or m (repeated flights)")
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument(
        "--trace",
        action="store_true",
        help="log every accepted local-search move, up to where a search reaches "
        "a state an earlier search passed",
    )
    p.add_argument("--out", help="solution JSON path")
    p.add_argument("--report", help="report JSON path")

    p = sub.add_parser("exact", help="exhaustive search, small instances only")
    p.add_argument("instance")
    p.add_argument("--variant", default="m")
    p.add_argument("--max-nodes", type=int, default=exact.ExactLimits.max_truck_nodes)
    p.add_argument("--max-customers", type=int, default=exact.ExactLimits.max_customers)
    p.add_argument("--max-drones", type=int, default=exact.ExactLimits.max_drones)
    p.add_argument("--out", help="solution JSON path")

    p = sub.add_parser("export-milp", help="write the MILP in CPLEX LP format")
    p.add_argument("instance")
    p.add_argument("--model", default="s", help="s, m, or umin (minimum fleet size)")
    p.add_argument("--big-m", type=float, default=None, help="objective upper bound (--model s or m); defaults to a quick heuristic bound")
    p.add_argument("--literal-eq13", action="store_true", help="emit the summed single-trip wait constraint (--model s only)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("import-milp-solution", help="rebuild a solution from solver variable values")
    p.add_argument("instance")
    p.add_argument("values", help="text file with one 'name value' per line")
    p.add_argument("--variant", default=None)
    p.add_argument("--out", help="solution JSON path")

    p = sub.add_parser("compare-tsp", help="drone mode versus truck-only tour on a coincident instance")
    p.add_argument("instance")
    p.add_argument("--speeds", type=_float_list, default=[40, 50, 60, 70, 80])
    p.add_argument("--fleet", type=_int_list, default=[2, 3, 4, 5])
    p.add_argument("--iters", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV path")

    p = sub.add_parser("bench", help="grid of runs over instances x fleet sizes x drone speeds")
    p.add_argument("instances", nargs="+", help="instance JSON files or directories")
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speeds", type=_float_list, default=[40, 50, 60, 70, 80])
    p.add_argument("--u-offsets", type=_int_list, default=[0, 1, 2, 3], help="added to the computed minimum fleet size")
    p.add_argument("--skip-exact", action="store_true")
    p.add_argument("--out", required=True, help="CSV path")

    p = sub.add_parser("verify", help="check a solution file against its instance")
    p.add_argument("instance")
    p.add_argument("solution")
    return parser


def _cmd_gen(args) -> int:
    vehicles = dict(truck_speed=args.truck_speed, drone_speed=args.drone_speed, endurance=args.endurance)
    with _usage():
        if args.coincident:
            inst = instancegen.generate_coincident(
                d=args.d, n_total=args.n, seed=args.seed, num_drones=args.num_drones, **vehicles
            )
        else:
            inst = instancegen.generate(
                instancegen.GenConfig(d=args.d, n_truck=args.n, m_customers=args.m, seed=args.seed, **vehicles)
            )
            if args.num_drones != 1:
                inst = inst.replaced(num_drones=args.num_drones)
    save_instance(inst, args.out)
    print(f"wrote {inst.name}: {inst.n} truck nodes, {inst.m} customers -> {args.out}")
    return 0


def _trace_hook(name: str, delta: float):
    print(f"move {name} delta={delta:+.9f}", file=sys.stderr)


def _cmd_solve(args) -> int:
    with _usage():
        cfg = _grasp_config(args, Variant.parse(args.variant), args.time_limit)
    inst = load_instance(args.instance)
    best, report = grasp.run(inst, cfg, on_move=_trace_hook if args.trace else None)
    print(
        f"{inst.name} [{cfg.variant.value}] obj={report.objective:.6f} h "
        f"(travel {report.travel_time:.6f} + wait {report.wait_time:.6f}), "
        f"stops={report.visited}, iters={report.iterations}, "
        f"{report.retraced_searches} retraced searches, {report.wall_time:.2f}s"
    )
    if args.out:
        save_solution(best, args.out)
    if args.report:
        save_report(report, args.report)
    return 0


def _cmd_exact(args) -> int:
    with _usage():
        variant = Variant.parse(args.variant)
        limits = exact.ExactLimits(args.max_nodes, args.max_customers, args.max_drones)
    inst = load_instance(args.instance)
    mats = build_time_matrices(inst)
    result = exact.solve_exact(inst, mats, variant, limits)
    print(
        f"{inst.name} optimum {result.objective:.6f} h "
        f"({result.proof.subsets} subsets, {result.proof.assignments} improving leaves)"
    )
    if args.out:
        save_solution(result.solution, args.out)
    return 0


def _cmd_export_milp(args) -> int:
    with _usage():
        variant = None if args.model == "umin" else Variant.parse(args.model)
        if args.literal_eq13 and variant is not Variant.SINGLE:
            raise ValueError("--literal-eq13 applies to --model s only")
        if args.big_m is not None:
            if variant is None:
                raise ValueError("--big-m applies to --model s or m only")
            exact.check_big_m(args.big_m)
    inst = load_instance(args.instance)
    mats = build_time_matrices(inst)
    if variant is None:
        exact.export_umin_milp(inst, mats, args.out)
        print(f"wrote minimum-fleet model -> {args.out}")
        return 0
    big_m = args.big_m
    if big_m is None:
        cfg = grasp.GraspConfig(variant=variant, n_max=200, seed=0)
        _, report = grasp.run(inst, cfg, mats=mats)
        # a 0 h optimum has every arrival at 0, which any positive bound covers
        big_m = report.objective or 1.0
        print(f"big-M from heuristic bound: {big_m:.6f} h")
    exact.export_milp(inst, mats, variant, big_m, args.out, literal_eq13=args.literal_eq13)
    print(f"wrote {variant.value}-trip model -> {args.out}")
    return 0


def _cmd_import_milp(args) -> int:
    with _usage():
        variant = None if args.variant is None else Variant.parse(args.variant)
    inst = load_instance(args.instance)
    sol = exact.import_milp_solution(args.values, inst, variant=variant)
    print(f"imported solution: objective {sol.objective:.6f} h, stops {len(sol.tour)}")
    if args.out:
        save_solution(sol, args.out)
    return 0


def _report_row(report, truck_speed: float, tsp: baseline.TspResult) -> list:
    return [
        report.instance,
        f"{truck_speed:g}",
        f"{report.drone_speed:g}",
        report.num_drones,
        f"{tsp.objective:.6f}",
        report.visited,
        f"{report.objective:.6f}",
        f"{report.wait_time:.6f}",
        f"{report.travel_time:.6f}",
        f"{report.gap:.2f}",
        f"{report.wall_time:.2f}",
        "exact" if tsp.exact else "approx",
    ]


def _cmd_compare_tsp(args) -> int:
    inst = load_instance(args.instance)
    with _usage():
        cfg = _grasp_config(args, Variant.MULTI)
        baseline.check_coincident(inst)
        # a trial costs well under 1 ms; building each refuses bad --speeds or --fleet before the TSP
        for vd in args.speeds:
            for u in args.fleet:
                inst.replaced(drone_speed=float(vd), num_drones=int(u))
    tsp = baseline.solve_tsp(inst.truck_nodes, inst.truck_speed)
    rows = baseline.compare_mode(inst, args.speeds, args.fleet, cfg, tsp=tsp)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([*CSV_HEADER, "TSP_mode"])
        for report in rows:
            writer.writerow(_report_row(report, inst.truck_speed, tsp))
    label = "exact" if tsp.exact else "approximate"
    print(f"TSP tour ({label}): {tsp.objective:.6f} h; wrote {len(rows)} rows -> {args.out}")
    return 0


def _collect_instances(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob("*.json")))
        else:
            files.append(p)
    return files


def _cells(seconds: float, objective: float) -> list[str]:
    return [f"{seconds:.2f}", f"{objective:.6f}", f"{60 * objective:.3f}"]


def _cmd_bench(args) -> int:
    files = _collect_instances(args.instances)
    if not files:
        print("no instance files found", file=sys.stderr)
        return 1
    header = ["Data", "vd", "u"]
    for method in ("exact_s", "grasp_s", "exact_m", "grasp_m"):
        header += [f"{method}_Time", f"{method}_Obj_h", f"{method}_Obj_min"]
    grid = []
    for path in files:
        inst = load_instance(path)
        # fleet sizes come from the reference drone speed, so that every
        # grid speed down to it can serve every customer
        speed = max(instancegen.REFERENCE_DRONE_SPEED, inst.truck_speed)
        try:
            ref = inst.replaced(drone_speed=speed)
        except InfeasibleInstanceError as err:
            raise InfeasibleInstanceError(
                f"{path}: cannot size fleets at the reference drone speed of {speed:g} km/h: {err}"
            ) from None
        grid.append((inst, instancegen.compute_u_min(ref, build_time_matrices(ref))))
    with _usage():
        cfgs = [
            grasp.GraspConfig(variant=v, n_max=args.iters, seed=args.seed) for v in (Variant.SINGLE, Variant.MULTI)
        ]
        trials = [
            inst.replaced(drone_speed=float(vd), num_drones=u_min + offset)
            for inst, u_min in grid
            for offset in args.u_offsets
            for vd in args.speeds
        ]
    rows = []
    for trial in trials:
        mats = build_time_matrices(trial)
        row = [trial.name, f"{trial.drone_speed:g}", trial.num_drones]
        for cfg in cfgs:
            exact_cells = ["", "", ""]
            if not args.skip_exact:
                try:
                    t0 = time.perf_counter()
                    result = exact.solve_exact(trial, mats, cfg.variant)
                    dt = time.perf_counter() - t0
                    exact_cells = _cells(dt, result.objective)
                except exact.SizeLimitError:
                    pass
            _, report = grasp.run(trial, cfg, mats=mats)
            row += exact_cells + _cells(report.wall_time, report.objective)
        rows.append(row)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    mats = build_time_matrices(inst)
    sol = load_solution(args.solution)
    violations = list(check_feasibility(sol, inst, mats))
    if not violations and not math.isnan(sol.objective):
        recomputed = evaluate(sol.copy(), inst, mats).objective
        if abs(recomputed - sol.objective) > 1e-6:
            text = f"stored objective {sol.objective} differs from recomputed {recomputed}"
            violations.append(Violation("objective", text))
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print(f"ok: feasible, objective {sol.objective:.6f} h")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "exact": _cmd_exact,
        "export-milp": _cmd_export_milp,
        "import-milp-solution": _cmd_import_milp,
        "compare-tsp": _cmd_compare_tsp,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (TwoEchoError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
