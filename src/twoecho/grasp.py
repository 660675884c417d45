"""Multi-start driver: randomized construction plus local search, keep the best."""

from __future__ import annotations

import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .construct import ConstructionFailed, construct_solution
from .localsearch import local_search
from .model import (
    Instance,
    RunReport,
    Solution,
    TimeMatrices,
    TwoEchoError,
    Variant,
    build_time_matrices,
    evaluate,
)


class NoSolutionError(TwoEchoError):
    """Every iteration failed to construct a feasible solution."""

    def __init__(self, failures: int):
        self.failures = failures
        super().__init__(f"all {failures} construction attempts failed")


@dataclass(frozen=True)
class GraspConfig:
    """Outer-loop settings. 5000 iterations is the standard budget; the
    truck-only comparison mode uses 50000."""

    variant: Variant
    n_max: int = 5000
    seed: int = 0
    time_limit: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")


def worker_seed(master_seed: int, worker: int) -> int:
    """Derived per-worker seed; stable across runs and platforms."""
    return int(np.random.SeedSequence([master_seed, worker]).generate_state(1, np.uint64)[0])


def _run_stream(
    inst: Instance,
    mats: TimeMatrices,
    variant: Variant,
    iterations: int,
    seed: int,
    time_limit: float | None,
    on_move=None,
):
    rng = np.random.default_rng(seed)
    best: Solution | None = None
    done = failures = repeated = 0
    # Local search depends only on the tour and the two mappings, so a start
    # seen before reaches the same optimum, which cannot strictly beat best.
    # A key is the bytes of one array: the tour, then each customer's node,
    # then (multi-trip) each customer's drone. m and the variant are fixed
    # within a run, so the key's length fixes the tour's and no separator is
    # needed. Node and drone indices fit two bytes up to 65,536 of each.
    searched: set[bytes] = set()
    code = "H" if max(inst.n, inst.num_drones) <= 1 << 16 else "L"
    customers = range(inst.m)
    start = time.perf_counter()
    for _ in range(iterations):
        if time_limit is not None and time.perf_counter() - start >= time_limit:
            break
        done += 1
        try:
            # local search only reads the tour and assignment, and evaluates its result
            sol = construct_solution(inst, mats, variant, rng, evaluated=False)
        except ConstructionFailed:
            failures += 1
            continue
        packed = array(code, sol.tour)
        packed.extend(map(sol.assign.__getitem__, customers))
        if sol.drone_of is not None:
            packed.extend(map(sol.drone_of.__getitem__, customers))
        key = packed.tobytes()
        if key in searched:
            repeated += 1
            continue
        searched.add(key)
        sol = local_search(sol, inst, mats, on_move=on_move)
        if best is None or sol.objective < best.objective:
            best = sol
    return best, done, failures, repeated


def _worker(args):
    inst, variant, iterations, seed, time_limit, on_move = args
    mats = build_time_matrices(inst)
    return _run_stream(inst, mats, variant, iterations, seed, time_limit, on_move)


def run(
    inst: Instance,
    cfg: GraspConfig,
    mats: TimeMatrices | None = None,
    on_move=None,
) -> tuple[Solution, RunReport]:
    """Run the full loop and return the best solution with its report.

    Single-threaded runs are deterministic in the seed. With more workers,
    iterations are split evenly, each worker gets a derived seed, and the
    results merge by objective with a canonical-encoding tie-break, so a
    fixed thread count is deterministic too.

    ``on_move(name, delta)`` is called for every accepted local-search move;
    with more than one thread it runs in the workers, so it must be picklable
    (a module-level function is).
    """
    if mats is None:
        mats = build_time_matrices(inst)
    start = time.perf_counter()

    if cfg.threads == 1:
        streams = [_run_stream(inst, mats, cfg.variant, cfg.n_max, cfg.seed, cfg.time_limit, on_move)]
    else:
        shares = [
            cfg.n_max // cfg.threads + (1 if w < cfg.n_max % cfg.threads else 0)
            for w in range(cfg.threads)
        ]
        jobs = [
            (inst, cfg.variant, shares[w], worker_seed(cfg.seed, w), cfg.time_limit, on_move)
            for w in range(cfg.threads)
            if shares[w] > 0
        ]
        # cfg.threads fixes the streams; the pool needs no more workers than
        # jobs or cores, and a fork pool starts every worker at once
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            streams = list(pool.map(_worker, jobs))

    best, done, failures, repeated = None, 0, 0, 0
    for sol, d, f, r in streams:
        done += d
        failures += f
        repeated += r
        if sol is None:
            continue
        if best is None or (sol.objective, sol.canonical_json()) < (
            best.objective,
            best.canonical_json(),
        ):
            best = sol

    if best is None:
        raise NoSolutionError(failures)
    ev = evaluate(best, inst, mats)
    report = RunReport(
        instance=inst.name,
        variant=cfg.variant,
        num_drones=inst.num_drones,
        drone_speed=inst.drone_speed,
        visited=len(best.tour),
        objective=ev.objective,
        wait_time=ev.wait_time,
        travel_time=ev.travel_time,
        gap=None,
        iterations=done,
        wall_time=time.perf_counter() - start,
        construction_failures=failures,
        repeated_starts=repeated,
    )
    return best, report
