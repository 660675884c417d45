"""twoecho benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 benchmarks/run.py --workload c8 --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory and driven
through its library API in this one process, the way the CLI commands
``bench`` (tiny), ``solve`` (c8) and ``compare-tsp`` (coincident) call it.
Every output is checked. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. The
lines before it give the same figures with units, then one JSON report with
the provenance, raw timings, sample counts and the solution fingerprint.
Exit status is 0 only when every check passed.

Times are scaled to a reference speed: a fixed loop, independent of twoecho, is timed
between every two library calls, and each call's duration is multiplied by
``CAL_REF_S`` over the mean of the loop times on either side of it. This
cancels the CPU-speed drift of a shared machine (see README.md); the
unscaled times are in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tiny", "c8", "coincident")
SETUP_REPEATS = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import twoecho; print(time.perf_counter() - t0)"
)
FANOUT_THREADS = 2
TRACE_DIR = ROOT / ".bench_out"

# A scaled time reads as the time a call would take on a machine where
# calibrate() takes exactly this long; on the 2 vCPU Intel Xeon the bounds
# were set on, it took 0.9-1.8 ms.
CAL_REF_S = 1.0e-3
_CAL_ROWS = [[(i * 7 + j * 13) % 17 / 17.0 for j in range(20)] for i in range(20)]


def calibrate() -> float:
    """Seconds for a fixed loop with the program's instruction mix: list
    indexing, float compares and dict stores, as in local search, and numpy
    calls on tiny arrays, as in construction. Call only after numpy is
    imported, so that its import is never timed here."""
    import numpy as np

    rows = _CAL_ROWS
    arr = np.asarray(rows)[:6, :5]
    out = {}
    t0 = time.perf_counter()
    for a in range(20):
        ra = rows[a]
        for b in range(20):
            rb = rows[b]
            low = 0.0
            for k in range(20):
                v = ra[k] + rb[k] - ra[b]
                if v < low:
                    low = v
            out[a * 20 + b] = low
    for _ in range(40):
        cum = np.cumsum(1.0 / (arr + 1e-6), axis=0)
        pick = (cum < cum[-1] * 0.5).sum(axis=0)
        out[int(pick.sum())] = np.maximum(arr[pick] - 0.5, 0.0)
    return time.perf_counter() - t0


def calibrate_median(samples: int = 9) -> float:
    """Median of several calibration loops: a steadier speed reading for
    the few long set-up steps, where a single loop's noise would not average
    out as it does over the many calls of a pass."""
    return statistics.median(calibrate() for _ in range(samples))


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the acceptance-suite geometry")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time, after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program() -> None:
    """Import ``twoecho`` from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "twoecho" / "__init__.py").is_file():
        raise SystemExit(f"error: no twoecho sources under {src}")
    sys.path.insert(0, str(src))
    import twoecho

    if Path(twoecho.__file__).resolve().parent != (src / "twoecho").resolve():
        raise SystemExit(f"error: imported twoecho from {twoecho.__file__}, not from {src}")


def time_imports(repeats: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds of ``import twoecho`` in each of ``repeats``
    fresh interpreters, run one after another, each timed from inside."""
    out = []
    before = calibrate_median()
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = calibrate_median()
        took = float(done.stdout.split()[-1])
        out.append((took, scaled(took, before, after)))
        before = after
    return out


# --- passes -------------------------------------------------------------------------


class Pass:
    """One call of every job of the workload, in order, with a calibration
    loop between every two calls. ``threads`` overrides the GRASP workers."""

    def __init__(self, work, traced: bool = False, threads: int | None = None):
        self.traced = traced
        self.outputs = []
        self.raw = []
        tsp_by_group: dict = {}
        cal = [calibrate()]
        for job in work.jobs:
            if threads is not None and job.kind == "run":
                job = replace(job, cfg=replace(job.cfg, threads=threads))
            t0 = time.perf_counter()
            try:
                out = job.call(tsp_by_group)
            except Exception:  # a failed call is counted, and the pass goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            self.raw.append(time.perf_counter() - t0)
            self.outputs.append(out)
            cal.append(calibrate())
        self.cal = cal
        self.scaled = [scaled(d, cal[i], cal[i + 1]) for i, d in enumerate(self.raw)]
        self.wall = sum(self.scaled)
        self.raw_wall = sum(self.raw)
        runs = [i for i, job in enumerate(work.jobs) if job.kind == "run" and self.outputs[i]]
        self.run_samples = [(self.scaled[i], self.outputs[i][1].iterations) for i in runs]
        self.raw_run_seconds = sum(self.raw[i] for i in runs)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def fingerprint(encoded) -> str:
    """SHA-256 over the canonical JSON of every run()'s best solution, in job order."""
    h = hashlib.sha256()
    for text in encoded:
        h.update(b"null" if text is None else text.encode())
        h.update(b"\n")
    return h.hexdigest()


class Checker:
    """Counts attempted and failed top-level calls over every pass of a run.
    A call fails if it raised, its output failed a check, or its output
    differs from the same call's output in the first pass."""

    def __init__(self, workloads, work):
        self.w = workloads
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.messages: list[str] = []

    def fail(self, i, msg):
        job = self.work.jobs[i]
        self.failed += 1
        self.messages.append(f"job {i} ({job.kind}, {job.inst.name}): {msg}")

    def add(self, p: Pass, label: str):
        errors = self.w.check_pass(self.work, p.outputs)
        encoded = self.w.canonical_outputs(self.work, p.outputs)
        if self.reference is None:
            self.reference = encoded
        for i, errs in enumerate(errors):
            if encoded[i] != self.reference[i]:
                errs = errs + [f"{label} output differs from the first pass"]
            self.attempted += 1
            if errs:
                self.fail(i, "; ".join(errs))

    def fingerprint(self):
        return fingerprint(
            text for job, text in zip(self.work.jobs, self.reference) if job.kind == "run"
        )


def run_passes(work, seconds: float, tracer=None) -> list[Pass]:
    """Passes until the next would overrun ``seconds``, at least two. With a
    tracer, plain and traced passes alternate."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(Pass(work, traced=True))
        else:
            passes.append(Pass(work))
        took = time.perf_counter() - t0
        if len(passes) >= 2 and time.perf_counter() + took > deadline:
            return passes


# --- metrics ------------------------------------------------------------------------


def _iter_ms(p: Pass) -> float:
    return 1e3 * sum(d for d, _ in p.run_samples) / sum(n for _, n in p.run_samples)


def end_to_end(work, passes: list[Pass], setup_s: float):
    first = passes[0]
    objs = [out[0].objective for job, out in zip(work.jobs, first.outputs) if job.kind == "run" and out]
    metrics = {
        "iter_ms": (statistics.median(_iter_ms(p) for p in passes), "ms"),
        "iter_ms_p90": (p90([1e3 * d / n for p in passes for d, n in p.run_samples]), "ms"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "obj_mean_h": (statistics.fmean(objs), "h"),
    }
    iters = sum(n for _, n in first.run_samples)
    raw = {
        "iter_ms": statistics.median(1e3 * p.raw_run_seconds / iters for p in passes),
        "wall_s": statistics.median(p.raw_wall for p in passes),
        "calibrate_ms_median": 1e3 * statistics.median(c for p in passes for c in p.cal),
    }
    return metrics, raw


def quality(work, first: Pass) -> dict:
    """Deterministic figures of one workload only: the share of tiny
    instances where GRASP found the proven optimum, and the mean TSP time."""
    out = {}
    exact_obj = {
        job.group: res.objective
        for job, res in zip(work.jobs, first.outputs)
        if job.kind == "exact" and res is not None
    }
    if exact_obj:
        best: dict = {}
        for job, res in zip(work.jobs, first.outputs):
            if job.kind == "run" and res is not None:
                best[job.group] = min(best.get(job.group, float("inf")), res[0].objective)
        hits = sum(1 for g, opt in exact_obj.items() if best.get(g, float("inf")) <= opt + 1e-9)
        out["opt_hit_ratio"] = (hits / len(exact_obj), "ratio")
    tsp = [res.objective for job, res in zip(work.jobs, first.outputs) if job.kind == "tsp" and res]
    if tsp:
        out["tsp_h"] = (statistics.fmean(tsp), "h")
    return out


def per_layer(work, passes: list[Pass], tracer, setup_tracer, setup_scale: float, fanout: dict):
    """Per-layer figures from the traced passes, per pass. Times are scaled
    by the traced passes' mean calibration, like the end-to-end times."""
    from tracing import OPERATORS

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    k = len(traced)
    scale = 1e3 * CAL_REF_S / statistics.fmean(c for p in traced for c in p.cal)  # s -> scaled ms
    s = tracer.summary()
    setup = setup_tracer.summary()
    zero = {"count": 0, "total": 0.0, "self": 0.0, "durations": []}

    def span(name, summary=s):
        return summary.get(name, zero)

    run_total = span("grasp.run")["total"]
    iters = sum(n for p in traced for _, n in p.run_samples) or 1
    calls, secs = tracer.calls, tracer.seconds

    def per_call_ms(name, key="total"):
        e = span(name)
        return scale * e[key] / e["count"] if e["count"] else 0.0

    def share(prefix):
        own = sum(e["self"] for n, e in s.items() if n == prefix or n.startswith(prefix + "."))
        return own / run_total if run_total else 0.0

    def results(kind):
        return [res for p in traced for job, res in zip(work.jobs, p.outputs) if job.kind == kind and res]

    construct = span("construct")
    m = {
        "construct.calls": (construct["count"] / k, "count"),
        "construct.ms_per_call": (per_call_ms("construct"), "ms"),
        "construct.share": (share("construct"), "ratio"),
        "construct.fail_ratio": (
            tracer.raised[("construct", "ConstructionFailed")] / construct["count"]
            if construct["count"] else 0.0, "ratio"),
        "localsearch.init_ms_per_call": (per_call_ms("localsearch.init"), "ms"),
        "localsearch.search_ms_per_call": (per_call_ms("localsearch.search"), "ms"),
        "localsearch.export_ms_per_call": (per_call_ms("localsearch.export"), "ms"),
        "localsearch.share": (share("localsearch"), "ratio"),
        "localsearch.moves_per_iter": (sum(tracer.moves.values()) / iters, "count/iter"),
    }
    for op in OPERATORS:
        name = f"localsearch.op.{op}"
        m[f"{name}.calls"] = (calls[name] / k, "count")
        m[f"{name}.ms"] = (scale * secs[name] / k, "ms")
        m[f"{name}.moves"] = (tracer.moves[op] / k, "count")
    bi = "localsearch.best_insertion"
    btm, setup_btm = span("model.build_time_matrices"), span("model.build_time_matrices", setup)
    exact_results, tsp_results = results("exact"), results("tsp")
    exact_ms = [scale * d for d in span("exact.solve")["durations"]]
    m.update({
        f"{bi}.calls_per_iter": (calls[bi] / iters, "count/iter"),
        f"{bi}.ms": (scale * secs[bi] / k, "ms"),
        "model.evaluate.calls_per_iter": (span("model.evaluate")["count"] / iters, "count/iter"),
        "model.evaluate.ms": (scale * span("model.evaluate")["total"] / k, "ms"),
        "model.check_feasibility.calls": (calls["model.check_feasibility"] / k, "count"),
        "model.build_time_matrices.calls": (btm["count"] / k + setup_btm["count"], "count"),
        "model.build_time_matrices.ms": (
            scale * btm["total"] / k + 1e3 * setup_scale * setup_btm["total"], "ms"),
        "grasp.iterations": (iters / k, "count"),
        "grasp.run.self_ms_per_call": (per_call_ms("grasp.run", "self"), "ms"),
        "grasp.pool.speedup": (fanout.get("speedup", 0.0), "ratio"),
        "grasp.pool.overhead_ms": (fanout.get("overhead_ms", 0.0), "ms"),
        "exact.solve.calls": (span("exact.solve")["count"] / k, "count"),
        "exact.solve.ms_p50": (statistics.median(exact_ms) if exact_ms else 0.0, "ms"),
        "exact.subsets": (sum(r.proof.subsets for r in exact_results) / k, "count"),
        "exact.leaves": (sum(r.proof.assignments for r in exact_results) / k, "count"),
        "exact.minmax_packing.calls": (calls["exact.minmax_packing"] / k, "count"),
        "instancegen.generate.ms": (1e3 * setup_scale * span("instancegen.generate", setup)["total"], "ms"),
        "instancegen.compute_u_min.ms": (1e3 * setup_scale * span("instancegen.compute_u_min", setup)["total"], "ms"),
        "baseline.solve_tsp.calls": (span("baseline.solve_tsp")["count"] / k, "count"),
        "baseline.solve_tsp.ms": (scale * span("baseline.solve_tsp")["total"] / k, "ms"),
        "baseline.solve_tsp.exact_ratio": (
            sum(r.exact for r in tsp_results) / len(tsp_results) if tsp_results else 0.0, "ratio"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0),
            "%"),
    })
    return m


def fanout_probe(work, checker: Checker, serial: list[Pass]) -> dict:
    """Every job again with threads=2, twice. Times against the serial passes,
    and checks that the two pooled reruns give byte-identical solutions."""
    rounds = [Pass(work, threads=FANOUT_THREADS) for _ in range(2)]
    errors = [checker.w.check_pass(work, r.outputs) for r in rounds]
    encoded = [checker.w.canonical_outputs(work, r.outputs) for r in rounds]
    for i in range(len(work.jobs)):
        errs = errors[0][i] + errors[1][i]
        if encoded[0][i] is None or encoded[0][i] != encoded[1][i]:
            errs.append(f"threads={FANOUT_THREADS} reruns differ")
        checker.attempted += 2
        if errs:
            checker.fail(i, "fan-out: " + "; ".join(errs))
    one = statistics.median(p.wall for p in serial)
    pooled = statistics.median(r.wall for r in rounds)
    return {
        "speedup": one / pooled,
        "overhead_ms": 1e3 * (pooled - one / FANOUT_THREADS) / len(work.jobs),
        "fingerprint": fingerprint(encoded[0]),
    }


# --- provenance and output -------------------------------------------------------------


def provenance(args, work) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": work.instance_seeds,
        "jobs": len(work.jobs),
        "run_calls": sum(job.kind == "run" for job in work.jobs),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cal_ref_s": CAL_REF_S,
    }


def emit(metrics: dict, report: dict, checker: Checker) -> int:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report["attempted"] = checker.attempted
    report["failed"] = checker.failed
    report["fail_ratio"] = checker.failed / max(checker.attempted, 1)
    print(json.dumps(report, sort_keys=True))
    for msg in checker.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    imports = time_imports(SETUP_REPEATS)
    import_s = statistics.median(s for _, s in imports)

    import workloads

    setup_runs = []
    c0 = calibrate_median()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work = workloads.build(args.workload, args.seed)
        workloads.warm_up(work)
        took = time.perf_counter() - t0
        c1 = calibrate_median()
        setup_runs.append((took, scaled(took, c0, c1)))
        c0 = c1
    setup_s = import_s + statistics.median(s for _, s in setup_runs)

    checker = Checker(workloads, work)
    report = {
        "provenance": provenance(args, work),
        "setup": {
            "repeats": SETUP_REPEATS,
            "import_s": import_s,
            "raw_import_s": [r for r, _ in imports],
            "raw_build_s": [r for r, _ in setup_runs],
        },
    }

    if not args.trace:
        passes = run_passes(work, args.seconds)
        for p in passes:
            checker.add(p, "plain")
        metrics, raw = end_to_end(work, passes, setup_s)
        quality_figures = quality(work, passes[0])
        report.update({
            "passes": len(passes),
            "run_calls_per_pass": len(passes[0].run_samples),
            "p90_samples": sum(len(p.run_samples) for p in passes),
            "raw": raw,
            "quality": {n: {"value": v, "unit": u} for n, (v, u) in quality_figures.items()},
            "fingerprint": checker.fingerprint(),
        })
        return emit(metrics, report, checker)

    import tracing

    setup_tracer = tracing.Tracer()
    c0 = calibrate()
    with setup_tracer.installed():
        workloads.build(args.workload, args.seed)
    setup_scale = CAL_REF_S / ((c0 + calibrate()) / 2.0)
    tracer = tracing.Tracer()
    passes = run_passes(work, args.seconds, tracer)
    for p in passes:
        checker.add(p, "traced" if p.traced else "plain")
    fanout = {}
    if args.workload == "c8":
        fanout = fanout_probe(work, checker, [p for p in passes if not p.traced])
        report["pool_fingerprint"] = fanout.pop("fingerprint")
    metrics = per_layer(work, passes, tracer, setup_tracer, setup_scale, fanout)
    q = quality(work, passes[0])
    metrics["exact.opt_hit_ratio"] = q.get("opt_hit_ratio", (0.0, "ratio"))
    metrics["baseline.tsp_h"] = q.get("tsp_h", (0.0, "h"))
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    report.update({
        "passes": len(passes),
        "traced_passes": len([p for p in passes if p.traced]),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "fingerprint": checker.fingerprint(),
    })
    return emit(metrics, report, checker)


if __name__ == "__main__":
    sys.exit(main())
