"""Truck-only baseline: TSP tours over all nodes and the saving statistic."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exact import _closing, _held_karp, _popcount_layers, _tour
from .localsearch import relocate_segment, two_opt_move
from .model import Instance, Point, RunReport, Variant, manhattan, euclidean

EXACT_TSP_LIMIT = 16


@dataclass(frozen=True)
class TspResult:
    tour: tuple[int, ...]
    objective: float
    exact: bool


def _tour_length(tour, t) -> float:
    total = 0.0
    for a, b in zip(tour, tour[1:]):
        total += t[a][b]
    return total + t[tour[-1]][tour[0]]


def _nearest_neighbor(t) -> list[int]:
    n = len(t)
    tour = [0]
    left = set(range(1, n))
    cur = 0
    while left:
        nxt = min(left, key=lambda j: (t[cur][j], j))
        tour.append(nxt)
        left.remove(nxt)
        cur = nxt
    return tour


def solve_tsp(points, speed: float) -> TspResult:
    """Closed Manhattan tour over all points starting at index 0, in hours.

    Exact dynamic programming up to ``EXACT_TSP_LIMIT`` points; beyond that a
    nearest-neighbor start improved by 2-opt and segment relocation, flagged
    as approximate.
    """
    n = len(points)
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        return TspResult((0,), 0.0, True)
    pts = [Point(float(x), float(y)) for x, y in points]  # numpy scalars would leak into the result
    t = [[manhattan(a, b) / speed for b in pts] for a in pts]
    if n <= EXACT_TSP_LIMIT:
        dp = _held_karp(t, _popcount_layers(n - 1))
        full = (1 << (n - 1)) - 1
        cost, last = _closing(dp, t, [full])
        return TspResult(tuple(_tour(dp, t, full, int(last[0]))), float(cost[0]), True)
    tour = _nearest_neighbor(t)
    while two_opt_move(tour, t, 1e-12) or any(
        relocate_segment(tour, t, seg, 1e-12) for seg in (1, 2, 3)
    ):
        pass
    return TspResult(tuple(tour), _tour_length(tour, t), False)


def gap_percent(tsp_obj: float, obj: float) -> float:
    """Percentage of the truck-only completion time saved by using drones."""
    if tsp_obj <= 0:
        raise ValueError("TSP objective must be positive")
    return 100.0 * (tsp_obj - obj) / tsp_obj


def check_coincident(inst: Instance) -> None:
    """Raise ``ValueError`` unless customer k sits on truck node k + 1 for
    every non-depot node, so a stop can serve its own customer with a
    zero-length flight, and the truck nodes lie at two or more points, so
    the truck-only tour the comparison divides by has a positive length."""
    if inst.m != inst.n - 1:
        raise ValueError(f"not coincident: {inst.m} customers for {inst.n - 1} non-depot truck nodes")
    for k, c in enumerate(inst.customers):
        if euclidean(inst.truck_nodes[k + 1], c) > 1e-12:
            raise ValueError(f"not coincident: customer {k} is not on truck node {k + 1}")
    if len(set(inst.truck_nodes)) < 2:
        raise ValueError("truck nodes all share one point, so the truck-only tour has zero length")


def compare_mode(
    inst: Instance, speeds, fleet_sizes, cfg, tsp: TspResult | None = None
) -> list[RunReport]:
    """One multi-trip run per (drone speed, fleet size) against the TSP tour.

    ``inst`` must be a coincident instance (see :func:`check_coincident`).
    ``tsp`` is the truck-only tour over its nodes, solved here when omitted.
    """
    from .grasp import run as grasp_run

    check_coincident(inst)
    if tsp is None:
        tsp = solve_tsp(inst.truck_nodes, inst.truck_speed)
    rows: list[RunReport] = []
    for vd in speeds:
        for u in fleet_sizes:
            trial = inst.replaced(drone_speed=float(vd), num_drones=int(u))
            _, report = grasp_run(trial, replace(cfg, variant=Variant.MULTI))
            report.gap = gap_percent(tsp.objective, report.objective)
            report.tsp_objective = tsp.objective
            rows.append(report)
    return rows
