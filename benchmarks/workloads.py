"""Workload definitions: instances made from the workload seed, the top-level
calls one pass makes, and the checks every output must pass.

A workload is built once (set-up) into a list of jobs. A pass runs every job
in order; its outputs depend only on the workload seed, so every pass of a
run, and every run with the same seed, must give the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from twoecho import baseline, exact, grasp, instancegen, model
from twoecho.model import Variant

CHECK_TOL = 1e-9

# tiny: the criterion-1 suite shape (n in 3..5, m in 4..6, u <= 3).
TINY_COUNT = 30
TINY_GRASP_SEEDS = 2
TINY_ITERS = 400

# c8: the criterion-8 shape (20 truck nodes, 10 customers, u = max(2, u_min)).
# Several instances of that shape per workload seed, so that a change of seed
# moves the averages less than a change of code would.
C8_INSTANCES = 12
C8_GRASP_SEEDS = 5
C8_ITERS = 20

# coincident: the truck-only comparison grid (multi-trip, truck at 40 km/h).
COINCIDENT_D = 30.0
COINCIDENT_NODES = (16, 16, 16, 40, 40)
COINCIDENT_SPEEDS = (40.0, 50.0, 60.0, 70.0, 80.0)
COINCIDENT_FLEETS = (2, 3, 4, 5)
COINCIDENT_ITERS = 3


@dataclass
class Job:
    """One top-level library call.

    ``kind`` is ``run``, ``exact`` or ``tsp``. ``group`` ties the calls made
    on one instance together: GRASP is checked against the exact optimum of
    its group, and a comparison run reads the TSP tour of its group.
    """

    kind: str
    group: int
    inst: model.Instance
    mats: model.TimeMatrices
    variant: Variant | None = None  # exact jobs; run jobs carry theirs in cfg
    cfg: grasp.GraspConfig | None = None
    pass_mats: bool = False
    compare: bool = False

    def call(self, tsp_by_group: dict):
        if self.kind == "run":
            best, report = grasp.run(
                self.inst, self.cfg, mats=self.mats if self.pass_mats else None
            )
            if self.compare:
                tsp = tsp_by_group[self.group]
                report.gap = baseline.gap_percent(tsp.objective, report.objective)
                report.tsp_objective = tsp.objective
            return best, report
        if self.kind == "exact":
            return exact.solve_exact(self.inst, self.mats, self.variant)
        if self.kind == "tsp":
            result = baseline.solve_tsp(self.inst.truck_nodes, self.inst.truck_speed)
            tsp_by_group[self.group] = result
            return result
        raise ValueError(f"unknown job kind {self.kind!r}")


@dataclass
class Workload:
    jobs: list[Job]
    instance_seeds: list[int]


def _tiny(seed: int) -> Workload:
    jobs: list[Job] = []
    seeds: list[int] = []
    gen_seed = 9000 + 1000 * seed
    while len(seeds) < TINY_COUNT:
        gen_seed += 1
        idx = len(seeds)
        inst = instancegen.generate(
            instancegen.GenConfig(d=20, n_truck=3 + idx % 3, m_customers=4 + idx % 3, seed=gen_seed)
        )
        mats = model.build_time_matrices(inst)
        u = max(1 + idx % 3, instancegen.compute_u_min(inst, mats))
        if u > 3:
            continue
        inst = inst.replaced(num_drones=u)
        variant = Variant.SINGLE if idx % 2 == 0 else Variant.MULTI
        seeds.append(gen_seed)
        jobs.append(Job("exact", idx, inst, mats, variant=variant))
        for j in range(TINY_GRASP_SEEDS):
            cfg = grasp.GraspConfig(variant=variant, n_max=TINY_ITERS, seed=100 + idx + 1000 * j)
            jobs.append(Job("run", idx, inst, mats, cfg=cfg, pass_mats=True))
    return Workload(jobs, seeds)


def _c8(seed: int) -> Workload:
    jobs: list[Job] = []
    seeds = [42 + 100 * seed + j for j in range(C8_INSTANCES)]
    for idx, gen_seed in enumerate(seeds):
        inst = instancegen.generate(
            instancegen.GenConfig(d=20, n_truck=20, m_customers=10, seed=gen_seed)
        )
        mats = model.build_time_matrices(inst)
        inst = inst.replaced(num_drones=max(2, instancegen.compute_u_min(inst, mats)))
        for variant in (Variant.SINGLE, Variant.MULTI):
            for j in range(C8_GRASP_SEEDS):
                cfg = grasp.GraspConfig(variant=variant, n_max=C8_ITERS, seed=1 + j)
                jobs.append(Job("run", idx, inst, mats, cfg=cfg))
    return Workload(jobs, seeds)


def _coincident(seed: int) -> Workload:
    jobs: list[Job] = []
    seeds = [3 + 100 * seed + j for j in range(len(COINCIDENT_NODES))]
    for idx, (n_total, gen_seed) in enumerate(zip(COINCIDENT_NODES, seeds)):
        inst = instancegen.generate_coincident(
            d=COINCIDENT_D, n_total=n_total, seed=gen_seed, truck_speed=40.0
        )
        jobs.append(Job("tsp", idx, inst, model.build_time_matrices(inst)))
        cfg = grasp.GraspConfig(variant=Variant.MULTI, n_max=COINCIDENT_ITERS, seed=0)
        for vd in COINCIDENT_SPEEDS:
            for u in COINCIDENT_FLEETS:
                trial = inst.replaced(drone_speed=vd, num_drones=u)
                mats = model.build_time_matrices(trial)
                jobs.append(
                    Job("run", idx, trial, mats, cfg=cfg, compare=True)
                )
    return Workload(jobs, seeds)


_BY_NAME = {"tiny": _tiny, "c8": _c8, "coincident": _coincident}


def build(name: str, seed: int) -> Workload:
    return _BY_NAME[name](seed)


def warm_up(work: Workload) -> None:
    """One short run per variant, so first-call costs land in set-up. A
    warm-up run whose two construction attempts both fail, as they can on a
    tight single-trip instance, hands over to the next job of its variant."""
    warmed = set()
    for job in work.jobs:
        if job.kind != "run" or job.cfg.variant in warmed:
            continue
        cfg = grasp.GraspConfig(variant=job.cfg.variant, n_max=2, seed=0)
        try:
            grasp.run(job.inst, cfg, mats=job.mats)
        except grasp.NoSolutionError:
            continue
        warmed.add(job.cfg.variant)


# --- output checks ----------------------------------------------------------------


def _solution_errors(sol, job: Job) -> list[str]:
    errors = [str(v) for v in model.check_feasibility(sol, job.inst, job.mats)]
    if errors:
        return errors
    again = model.evaluate(sol.copy(), job.inst, job.mats).objective
    if abs(again - sol.objective) > CHECK_TOL:
        errors.append(f"stored objective {sol.objective!r} != recomputed {again!r}")
    return errors


def _tsp_errors(result, job: Job) -> list[str]:
    pts = job.inst.truck_nodes
    tour = list(result.tour)
    if tour[:1] != [0] or sorted(tour) != list(range(len(pts))):
        return [f"tour {tour} is not a permutation of all {len(pts)} nodes from the depot"]
    speed = job.inst.truck_speed
    length = sum(
        (abs(pts[a].x - pts[b].x) + abs(pts[a].y - pts[b].y)) / speed
        for a, b in zip(tour, tour[1:] + tour[:1])
    )
    if abs(length - result.objective) > CHECK_TOL:
        return [f"tour length {length!r} != reported {result.objective!r}"]
    return []


def check_pass(work: Workload, outputs: list) -> list[list[str]]:
    """Errors per job for one pass; ``outputs[i]`` is None when job i raised."""
    errors: list[list[str]] = [[] for _ in work.jobs]
    grasp_objs: dict[int, list[float]] = {}
    for i, (job, out) in enumerate(zip(work.jobs, outputs)):
        if out is None:
            errors[i].append("raised")
            continue
        if job.kind == "run":
            best, report = out
            errors[i] += _solution_errors(best, job)
            if report.iterations != job.cfg.n_max:
                errors[i].append(f"{report.iterations} iterations, budget {job.cfg.n_max}")
            if abs(report.objective - best.objective) > CHECK_TOL:
                errors[i].append("report objective differs from the solution's")
            if job.compare and not math.isfinite(report.gap):
                errors[i].append(f"gap {report.gap!r} is not finite")
            grasp_objs.setdefault(job.group, []).append(best.objective)
        elif job.kind == "exact":
            errors[i] += _solution_errors(out.solution, job)
        else:
            errors[i] += _tsp_errors(out, job)
    for i, (job, out) in enumerate(zip(work.jobs, outputs)):
        if job.kind == "exact" and out is not None:
            worse = [o for o in grasp_objs.get(job.group, []) if o < out.objective - CHECK_TOL]
            if worse:
                errors[i].append(f"GRASP found {min(worse)!r} below the proven optimum {out.objective!r}")
    return errors


def canonical_outputs(work: Workload, outputs: list) -> list[str | None]:
    """Per-job encoding compared across passes; best solutions for runs."""
    encoded: list[str | None] = []
    for job, out in zip(work.jobs, outputs):
        if out is None:
            encoded.append(None)
        elif job.kind == "run":
            encoded.append(out[0].canonical_json())
        elif job.kind == "exact":
            encoded.append(out.solution.canonical_json())
        else:
            encoded.append(repr((out.tour, out.objective, out.exact)))
    return encoded
