"""Domain types, feasibility checking, and exact evaluation of truck-and-drone routes.

Units are fixed throughout the package: distances in km, speeds in km/h,
all times in hours. Equality on times uses ``TIME_EPS``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

TIME_EPS = 1e-9


class TwoEchoError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleInstanceError(TwoEchoError):
    """The instance admits no feasible solution (or violates its own invariants)."""


class CapacityExceededError(TwoEchoError):
    """More single-trip flights requested at a stop than there are drones."""


class InputFileError(TwoEchoError):
    """A file does not hold the JSON document it should; names the file."""


class InfeasibleSolutionError(TwoEchoError):
    """A solution violates structural constraints; carries the violation list."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class Variant(Enum):
    """Drone operating mode: one flight per drone per stop, or repeated flights."""

    SINGLE = "single"
    MULTI = "multi"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        key = text.strip().lower()
        aliases = {"s": cls.SINGLE, "single": cls.SINGLE, "m": cls.MULTI, "multi": cls.MULTI}
        if key not in aliases:
            raise ValueError(f"unknown variant {text!r} (expected s/single or m/multi)")
        return aliases[key]


class Point(NamedTuple):
    x: float
    y: float


def manhattan(a: Point, b: Point) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def euclidean(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Instance:
    """Problem data, immutable after construction.

    ``truck_nodes[0]`` is the depot. The truck drives Manhattan distances at
    ``truck_speed``; drones fly Euclidean round trips at ``drone_speed``,
    each trip limited to ``endurance`` hours. Drones launch only from
    truck stops; the depot itself never launches.
    """

    name: str
    d: float
    truck_nodes: tuple[Point, ...]
    customers: tuple[Point, ...]
    truck_speed: float
    drone_speed: float
    endurance: float
    num_drones: int
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "truck_nodes", tuple(Point(*p) for p in self.truck_nodes))
        object.__setattr__(self, "customers", tuple(Point(*p) for p in self.customers))
        self.validate()

    @property
    def n(self) -> int:
        return len(self.truck_nodes)

    @property
    def m(self) -> int:
        return len(self.customers)

    def validate(self) -> None:
        if not self.truck_nodes:
            raise InfeasibleInstanceError("instance has no truck nodes")
        if not (self.truck_speed > 0 and self.drone_speed >= self.truck_speed):
            raise InfeasibleInstanceError(
                f"speeds must satisfy drone >= truck > 0, got truck={self.truck_speed} drone={self.drone_speed}"
            )
        if not self.endurance > 0:
            raise InfeasibleInstanceError("endurance must be positive")
        if self.num_drones < 1:
            raise InfeasibleInstanceError("need at least one drone")
        for p in self.truck_nodes + self.customers:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InfeasibleInstanceError(f"non-finite coordinate {p}")
        # every customer must be reachable from some truck node within endurance
        for k, c in enumerate(self.customers):
            best = min(2.0 * euclidean(v, c) / self.drone_speed for v in self.truck_nodes)
            if best > self.endurance + TIME_EPS:
                raise InfeasibleInstanceError(
                    f"customer {k} unreachable: closest round trip {best:.6f} h exceeds endurance {self.endurance} h"
                )

    def replaced(self, **changes) -> "Instance":
        """Copy with fields changed; re-validates."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TimeMatrices:
    """Derived travel times and reachability sets, cached once per instance.

    ``t[i][j]`` truck hours (Manhattan / truck speed), ``trip[i][k]`` drone
    round-trip hours from node i to customer k (twice Euclidean / drone
    speed), ``reach[i][k]`` whether that trip is within endurance.
    ``w_sets[i]`` lists customers a drone from node i can serve;
    ``v_serve[k]`` lists the nodes that can serve customer k, without the
    depot, which never launches drones. All are nested lists and tuples,
    which index faster than numpy arrays one element at a time.
    """

    t: list[list[float]]
    trip: list[list[float]]
    reach: list[list[bool]]
    w_sets: tuple[tuple[int, ...], ...]
    v_serve: tuple[tuple[int, ...], ...]


def require_launch_sites(serve_sets: Sequence[Sequence[int]]) -> None:
    """Raise :class:`InfeasibleInstanceError` for the first customer without
    a launch-capable truck node in drone range (an empty ``v_serve`` entry)."""
    for k, sites in enumerate(serve_sets):
        if not sites:
            raise InfeasibleInstanceError(
                f"customer {k} has no launch-capable truck node within drone range"
            )


def build_time_matrices(inst: Instance) -> TimeMatrices:
    """Compute truck/drone time matrices and the reachability sets."""
    tn = np.asarray(inst.truck_nodes, dtype=float)
    cu = np.asarray(inst.customers, dtype=float).reshape(inst.m, 2)
    t = np.abs(tn[:, None, :] - tn[None, :, :]).sum(axis=2) / inst.truck_speed
    if inst.m:
        diff = tn[:, None, :] - cu[None, :, :]
        one_way = np.sqrt((diff * diff).sum(axis=2)) / inst.drone_speed
    else:
        one_way = np.zeros((inst.n, 0))
    trip = 2.0 * one_way
    reach = trip <= inst.endurance + TIME_EPS
    w_sets = tuple(tuple(np.flatnonzero(reach[i]).tolist()) for i in range(inst.n))
    v_serve = tuple(tuple((np.flatnonzero(reach[1:, k]) + 1).tolist()) for k in range(inst.m))
    return TimeMatrices(
        t=t.tolist(),
        trip=trip.tolist(),
        reach=reach.tolist(),
        w_sets=w_sets,
        v_serve=v_serve,
    )


def node_wait_single(trips: Sequence[float], num_drones: int) -> float:
    """Stop wait when every flight uses its own drone: the longest round trip."""
    if len(trips) > num_drones:
        raise CapacityExceededError(f"{len(trips)} flights but only {num_drones} drones")
    return max(trips, default=0.0)


def node_wait_multi(per_drone_trips: Iterable[Sequence[float]]) -> float:
    """Stop wait when drones fly repeatedly: the busiest drone's total airtime."""
    return max((sum(r, 0.0) for r in per_drone_trips), default=0.0)


# --- solutions ---------------------------------------------------------------


@dataclass
class Solution:
    """A truck tour plus the customer assignment (and drone split in multi mode).

    ``tour`` starts at the depot (index 0) and is implicitly closed by the
    return leg to a depot copy at the same coordinates. ``waits``,
    ``arrivals`` and ``objective`` are caches filled by :func:`evaluate`.
    """

    variant: Variant
    tour: list[int]
    assign: dict[int, int]
    drone_of: dict[int, int] | None = None
    waits: dict[int, float] = field(default_factory=dict)
    arrivals: dict[int, float] = field(default_factory=dict)
    objective: float = math.nan

    def copy(self) -> "Solution":
        return Solution(
            variant=self.variant,
            tour=list(self.tour),
            assign=dict(self.assign),
            drone_of=None if self.drone_of is None else dict(self.drone_of),
            waits=dict(self.waits),
            arrivals=dict(self.arrivals),
            objective=self.objective,
        )

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "tour": list(self.tour),
            "assign": {str(k): i for k, i in sorted(self.assign.items())},
            "drone_of": None if self.drone_of is None else {str(k): l for k, l in sorted(self.drone_of.items())},
            "objective": self.objective,
            "waits": {str(i): w for i, w in sorted(self.waits.items())},
            "arrivals": {str(i): a for i, a in sorted(self.arrivals.items())},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Solution":
        drone_of = data.get("drone_of")
        return cls(
            variant=Variant.parse(data["variant"]),
            tour=[int(i) for i in data["tour"]],
            assign={int(k): int(i) for k, i in data["assign"].items()},
            drone_of=None if drone_of is None else {int(k): int(l) for k, l in drone_of.items()},
            waits={int(i): float(w) for i, w in data.get("waits", {}).items()},
            arrivals={int(i): float(a) for i, a in data.get("arrivals", {}).items()},
            objective=float(data.get("objective", math.nan)),
        )

    def canonical_json(self) -> str:
        """Compact deterministic encoding, used for tie-breaking and byte-level tests."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# --- feasibility -------------------------------------------------------------


class Violation:
    """Base class for feasibility violations (reported, never raised directly)."""


@dataclass(frozen=True)
class TourViolation(Violation):
    detail: str

    def __str__(self):
        return f"tour: {self.detail}"


@dataclass(frozen=True)
class UnassignedCustomer(Violation):
    customer: int

    def __str__(self):
        return f"customer {self.customer} is not assigned to any stop"


@dataclass(frozen=True)
class UnknownCustomer(Violation):
    customer: int

    def __str__(self):
        return f"assignment references unknown customer {self.customer}"


@dataclass(frozen=True)
class RangeViolation(Violation):
    customer: int
    node: int

    def __str__(self):
        return f"customer {self.customer} is out of drone range from node {self.node}"


@dataclass(frozen=True)
class CapacityViolation(Violation):
    node: int

    def __str__(self):
        return f"node {self.node} serves more customers than there are drones"


@dataclass(frozen=True)
class DepotLaunchViolation(Violation):
    customer: int

    def __str__(self):
        return f"customer {self.customer} is assigned to the depot, which cannot launch drones"


@dataclass(frozen=True)
class UnvisitedNodeViolation(Violation):
    customer: int
    node: int

    def __str__(self):
        return f"customer {self.customer} is assigned to node {self.node} which the truck never visits"


@dataclass(frozen=True)
class EmptyNodeViolation(Violation):
    node: int

    def __str__(self):
        return f"visited node {self.node} serves no customer"


@dataclass(frozen=True)
class DroneIndexViolation(Violation):
    customer: int

    def __str__(self):
        return f"customer {self.customer} has no valid drone index"


@dataclass(frozen=True)
class ObjectiveMismatch(Violation):
    stored: float
    recomputed: float

    def __str__(self):
        return f"stored objective {self.stored} differs from recomputed {self.recomputed}"


def check_feasibility(sol: Solution, inst: Instance, mats: TimeMatrices) -> list[Violation]:
    """Return every structural violation of ``sol``; empty list means feasible."""
    out: list[Violation] = []
    n, m = inst.n, inst.m

    if not sol.tour or sol.tour[0] != 0:
        out.append(TourViolation("must start at the depot (node 0)"))
    if len(set(sol.tour)) != len(sol.tour):
        out.append(TourViolation("repeats a node"))
    bad = [i for i in sol.tour if not 0 <= i < n]
    if bad:
        out.append(TourViolation(f"unknown node indices {bad}"))
        return out
    visited = set(sol.tour)

    for k in sol.assign:
        if not 0 <= k < m:
            out.append(UnknownCustomer(k))
    for k in range(m):
        i = sol.assign.get(k)
        if i is None:
            out.append(UnassignedCustomer(k))
            continue
        if i == 0:
            out.append(DepotLaunchViolation(k))
            continue
        if not 0 <= i < n:
            out.append(UnvisitedNodeViolation(k, i))
            continue
        if i not in visited:
            out.append(UnvisitedNodeViolation(k, i))
        if mats.trip[i][k] > inst.endurance + TIME_EPS:
            out.append(RangeViolation(k, i))

    served: dict[int, int] = {}
    for k, i in sol.assign.items():
        served[i] = served.get(i, 0) + 1
    if sol.variant is Variant.SINGLE:
        for i, cnt in served.items():
            if cnt > inst.num_drones:
                out.append(CapacityViolation(i))
    else:
        for k in range(m):
            l = None if sol.drone_of is None else sol.drone_of.get(k)
            if l is None or not 0 <= l < inst.num_drones:
                out.append(DroneIndexViolation(k))
    for i in sol.tour[1:]:
        if served.get(i, 0) == 0:
            out.append(EmptyNodeViolation(i))
    return out


class Evaluation(NamedTuple):
    objective: float
    arrivals: dict[int, float]
    waits: dict[int, float]
    travel_time: float
    wait_time: float


def evaluate(sol: Solution, inst: Instance, mats: TimeMatrices) -> Evaluation:
    """Recompute waits, arrival times and the completion-time objective from
    scratch, and refresh the caches on ``sol``.

    Raises :class:`InfeasibleSolutionError` listing all violations if the
    solution is structurally infeasible.
    """
    violations = check_feasibility(sol, inst, mats)
    if violations:
        raise InfeasibleSolutionError(violations)

    trips_at: dict[int, list[float]] = {i: [] for i in sol.tour}
    per_drone: dict[int, list[list[float]]] = {}
    if sol.variant is Variant.MULTI:
        per_drone = {i: [[] for _ in range(inst.num_drones)] for i in sol.tour}
    trip = mats.trip
    for k in range(inst.m):
        i = sol.assign[k]
        trips_at[i].append(trip[i][k])
        if sol.variant is Variant.MULTI:
            per_drone[i][sol.drone_of[k]].append(trip[i][k])

    waits: dict[int, float] = {}
    for i in sol.tour:
        if sol.variant is Variant.SINGLE:
            waits[i] = node_wait_single(trips_at[i], inst.num_drones)
        else:
            waits[i] = node_wait_multi(per_drone[i])

    arrivals: dict[int, float] = {}
    clock = 0.0
    travel = 0.0
    prev = sol.tour[0]
    arrivals[prev] = 0.0
    for i in sol.tour[1:]:
        leg = mats.t[prev][i]
        clock += waits[prev] + leg
        travel += leg
        arrivals[i] = clock
        prev = i
    closing = mats.t[prev][0]
    objective = clock + waits[prev] + closing
    travel += closing
    wait_time = sum(waits.values())

    sol.waits = dict(waits)
    sol.arrivals = dict(arrivals)
    sol.objective = objective
    return Evaluation(objective, arrivals, waits, travel, wait_time)


# --- run reports --------------------------------------------------------------


@dataclass
class RunReport:
    """One result row: objective split into pure travel and waiting, plus run stats."""

    instance: str
    variant: Variant
    num_drones: int
    drone_speed: float
    visited: int
    objective: float
    wait_time: float
    travel_time: float
    gap: float | None
    iterations: int
    wall_time: float
    tsp_objective: float | None = None
    construction_failures: int = 0
    repeated_starts: int = 0

    def __post_init__(self):
        if abs(self.objective - (self.wait_time + self.travel_time)) > 1e-9:
            raise ValueError(
                f"objective {self.objective} != wait {self.wait_time} + travel {self.travel_time}"
            )

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "variant": self.variant.value,
            "num_drones": self.num_drones,
            "drone_speed": self.drone_speed,
            "visited": self.visited,
            "objective": self.objective,
            "wait_time": self.wait_time,
            "travel_time": self.travel_time,
            "gap": self.gap,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "tsp_objective": self.tsp_objective,
            "construction_failures": self.construction_failures,
            "repeated_starts": self.repeated_starts,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunReport":
        return cls(
            instance=data["instance"],
            variant=Variant.parse(data["variant"]),
            num_drones=int(data["num_drones"]),
            drone_speed=float(data["drone_speed"]),
            visited=int(data["visited"]),
            objective=float(data["objective"]),
            wait_time=float(data["wait_time"]),
            travel_time=float(data["travel_time"]),
            gap=None if data.get("gap") is None else float(data["gap"]),
            iterations=int(data["iterations"]),
            wall_time=float(data["wall_time"]),
            tsp_objective=None if data.get("tsp_objective") is None else float(data["tsp_objective"]),
            construction_failures=int(data.get("construction_failures", 0)),
            repeated_starts=int(data.get("repeated_starts", 0)),
        )


# --- JSON file formats --------------------------------------------------------


_INSTANCE_KEYS = frozenset(f.name for f in fields(Instance) if f.name != "meta")


def instance_to_json_dict(inst: Instance) -> dict:
    """Core fields plus the ``meta`` keys (generator seed and so on) at the top
    level; a meta key named like a core field is left out, never written over it."""
    # the same conversions as on reading, so that a loaded file saves to the same bytes
    core = {
        "name": str(inst.name),
        "d": float(inst.d),
        "truck_speed": float(inst.truck_speed),
        "drone_speed": float(inst.drone_speed),
        "endurance": float(inst.endurance),
        "num_drones": int(inst.num_drones),
        "truck_nodes": [[float(p.x), float(p.y)] for p in inst.truck_nodes],
        "customers": [[float(p.x), float(p.y)] for p in inst.customers],
    }
    meta = {key: value for key, value in (inst.meta or {}).items() if key not in core}
    return {**meta, **core}


def instance_from_json_dict(data: Mapping) -> Instance:
    """Inverse of :func:`instance_to_json_dict`: keys beyond the core fields go to ``meta``."""
    meta = {key: value for key, value in data.items() if key not in _INSTANCE_KEYS}
    return Instance(
        name=str(data["name"]),
        d=float(data["d"]),
        truck_nodes=tuple(Point(float(x), float(y)) for x, y in data["truck_nodes"]),
        customers=tuple(Point(float(x), float(y)) for x, y in data["customers"]),
        truck_speed=float(data["truck_speed"]),
        drone_speed=float(data["drone_speed"]),
        endurance=float(data["endurance"]),
        num_drones=int(data["num_drones"]),
        meta=meta or None,
    )


def _dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, sort_keys=True, indent=2)
        f.write("\n")


def _load(path, parse):
    """Build an object with ``parse`` from the JSON object in file ``path``;
    raise :class:`InputFileError` if the file holds something else."""
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
            if not isinstance(data, dict):
                raise InputFileError(f"{path}: expected a JSON object, got {type(data).__name__}")
            return parse(data)
        except KeyError as err:
            raise InputFileError(f"{path}: missing field {err}") from None
        except (AttributeError, TypeError, ValueError) as err:
            # ValueError includes bad JSON and bad text encoding
            raise InputFileError(f"{path}: {err}") from None


def save_instance(inst: Instance, path) -> None:
    _dump(instance_to_json_dict(inst), path)


def load_instance(path) -> Instance:
    return _load(path, instance_from_json_dict)


def save_solution(sol: Solution, path) -> None:
    _dump(sol.to_json_dict(), path)


def load_solution(path) -> Solution:
    return _load(path, Solution.from_json_dict)


def save_report(report: RunReport, path) -> None:
    _dump(report.to_json_dict(), path)


def load_report(path) -> RunReport:
    return _load(path, RunReport.from_json_dict)
