"""Domain types, feasibility checking, and exact evaluation of truck-and-drone routes.

Units are fixed throughout the package: distances in km, speeds in km/h,
all times in hours. Equality on times uses ``TIME_EPS``.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from itertools import compress
from typing import Mapping, NamedTuple, Sequence

import numpy as np

TIME_EPS = 1e-9


class TwoEchoError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleInstanceError(TwoEchoError):
    """The instance admits no feasible solution (or violates its own invariants)."""


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
        check_vehicles(self.truck_speed, self.drone_speed, self.endurance)
        if self.num_drones < 1:
            raise InfeasibleInstanceError(f"need at least one drone, got {self.num_drones}")
        for p in self.truck_nodes + self.customers:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InfeasibleInstanceError(f"non-finite coordinate {p}")
        # every customer needs a launch site: a truck stop, never the depot, in drone range
        trip, reach = _drone_reach(self)
        stranded = np.flatnonzero(~reach.any(axis=0))
        if stranded.size:
            k, best = stranded[0], trip[1:, stranded[0]].min(initial=math.inf)
            raise InfeasibleInstanceError(
                f"customer {k} has no launch-capable truck node within drone range: "
                f"closest round trip from a stop {best:.6f} h exceeds endurance {self.endurance} h"
            )

    def replaced(self, **changes) -> "Instance":
        """Copy with fields changed; re-validates."""
        return replace(self, **changes)


def check_vehicles(truck_speed: float, drone_speed: float, endurance: float) -> None:
    """Raise :class:`InfeasibleInstanceError` unless inf > drone speed >=
    truck speed > 0 and the endurance is positive and finite."""
    if not (0 < truck_speed <= drone_speed < math.inf):
        raise InfeasibleInstanceError(
            f"speeds must satisfy inf > drone >= truck > 0, got truck={truck_speed} drone={drone_speed}"
        )
    if not 0 < endurance < math.inf:
        raise InfeasibleInstanceError(f"endurance must be positive and finite, got {endurance}")


def _drone_reach(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``trip`` and ``reach`` as :class:`TimeMatrices` defines them, as arrays."""
    tn = np.asarray(inst.truck_nodes, dtype=float)
    cu = np.asarray(inst.customers, dtype=float).reshape(inst.m, 2)
    diff = tn[:, None, :] - cu[None, :, :]
    trip = 2.0 * (np.sqrt((diff * diff).sum(axis=2)) / inst.drone_speed)
    reach = trip <= inst.endurance + TIME_EPS
    reach[0] = False
    return trip, reach


@dataclass(frozen=True)
class TimeMatrices:
    """Derived travel times and reachability sets, cached once per instance.

    ``t[i][j]`` truck hours (Manhattan / truck speed), ``trip[i][k]`` drone
    round-trip hours from node i to customer k (twice Euclidean / drone
    speed), ``reach[i][k]`` whether that trip is within endurance and i is
    not the depot, which never launches drones (``reach[0]`` is all False).
    ``w_sets[i]`` lists customers node i can serve; ``v_serve[k]``, never
    empty, the nodes that can serve customer k. All are nested lists and
    tuples, which index faster than numpy arrays one element at a time.
    """

    t: list[list[float]]
    trip: list[list[float]]
    reach: list[list[bool]]
    w_sets: tuple[tuple[int, ...], ...]
    v_serve: tuple[tuple[int, ...], ...]


def truck_times(points, speed: float) -> list[list[float]]:
    """Manhattan truck hours between every two of ``points``, as nested lists."""
    p = np.asarray(points, dtype=float)
    return (np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2) / speed).tolist()


def build_time_matrices(inst: Instance) -> TimeMatrices:
    """Compute truck/drone time matrices and the reachability sets."""
    trip, reach = _drone_reach(inst)
    rows = reach.tolist()
    customers, nodes = range(inst.m), range(inst.n)
    # each set goes through a list: tuples grown from the iterators left a
    # run about 2 MB larger at its peak
    return TimeMatrices(
        t=truck_times(inst.truck_nodes, inst.truck_speed),
        trip=trip.tolist(),
        reach=rows,
        w_sets=tuple(tuple([*compress(customers, row)]) for row in rows),
        v_serve=tuple(tuple([*compress(nodes, col)]) for col in zip(*rows)),
    )


def _whole(value, name: str) -> int:
    """Field ``name``'s index or count, read from a file: an integer or an
    integral float. Anything else, a bool or a string too, raises ValueError,
    so that a fractional value is never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _key(key: str, name: str) -> int:
    """A key of field ``name`` in the form ``str(k)`` that ``to_json_dict`` writes;
    ``int()`` would fold "01", "+1", " 1" or "1_0" onto another index."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValueError(f"{name}: expected an integer key, got {key!r}")
    return int(key)


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
            tour=[_whole(i, "tour") for i in data["tour"]],
            assign={_key(k, "assign"): _whole(i, "assign") for k, i in data["assign"].items()},
            drone_of=None if drone_of is None else {_key(k, "drone_of"): _whole(l, "drone_of") for k, l in drone_of.items()},
            waits={_key(i, "waits"): float(w) for i, w in data.get("waits", {}).items()},
            arrivals={_key(i, "arrivals"): float(a) for i, a in data.get("arrivals", {}).items()},
            objective=float(data.get("objective", math.nan)),
        )

    def canonical_json(self) -> str:
        """Compact deterministic encoding, used for tie-breaking and byte-level tests."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# --- feasibility -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One broken constraint, reported and never raised; ``str()`` gives its text.

    ``kind`` is one of ``tour``, ``unknown``, ``unassigned``, ``depot``,
    ``unvisited``, ``range``, ``capacity``, ``drone``, ``empty`` and
    ``objective`` (a stored objective that re-evaluation does not reproduce).
    """

    kind: str
    text: str

    def __str__(self):
        return self.text


def check_feasibility(sol: Solution, inst: Instance, mats: TimeMatrices) -> list[Violation]:
    """Return every structural violation of ``sol``; empty list means feasible."""
    out: list[Violation] = []
    n, m = inst.n, inst.m

    if not sol.tour or sol.tour[0] != 0:
        out.append(Violation("tour", "tour: must start at the depot (node 0)"))
    if len(set(sol.tour)) != len(sol.tour):
        out.append(Violation("tour", "tour: repeats a node"))
    bad = [i for i in sol.tour if not 0 <= i < n]
    if bad:
        out.append(Violation("tour", f"tour: unknown node indices {bad}"))
        return out
    visited = set(sol.tour)

    for what, keys in (("assignment", sol.assign), ("drone choice", sol.drone_of or {})):
        out += [Violation("unknown", f"{what} references unknown customer {k}") for k in keys if not 0 <= k < m]
    for k in range(m):
        i = sol.assign.get(k)
        if i is None:
            out.append(Violation("unassigned", f"customer {k} is not assigned to any stop"))
            continue
        if i == 0:
            text = f"customer {k} is assigned to the depot, which cannot launch drones"
            out.append(Violation("depot", text))
            continue
        if i not in visited:  # also catches an index outside the instance
            text = f"customer {k} is assigned to node {i} which the truck never visits"
            out.append(Violation("unvisited", text))
        if 0 <= i < n and not mats.reach[i][k]:
            out.append(Violation("range", f"customer {k} is out of drone range from node {i}"))

    served: dict[int, int] = {}
    for k, i in sol.assign.items():
        served[i] = served.get(i, 0) + 1
    if sol.variant is Variant.SINGLE:
        for i, cnt in served.items():
            if cnt > inst.num_drones:
                text = f"node {i} serves more customers than there are drones"
                out.append(Violation("capacity", text))
    else:
        for k in range(m):
            l = None if sol.drone_of is None else sol.drone_of.get(k)
            if l is None or not 0 <= l < inst.num_drones:
                out.append(Violation("drone", f"customer {k} has no valid drone index"))
    for i in sol.tour[1:]:
        if served.get(i, 0) == 0:
            out.append(Violation("empty", f"visited node {i} serves no customer"))
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

    # a stop waits for its busiest lane: a multi-trip lane is a drone, and
    # each single-trip flight is a lane of its own (check_feasibility has
    # already capped those flights at one per drone)
    multi = sol.variant is Variant.MULTI
    trip = mats.trip
    lanes: dict[tuple[int, int], list[float]] = {}
    for k in range(inst.m):
        i = sol.assign[k]
        lanes.setdefault((i, sol.drone_of[k] if multi else k), []).append(trip[i][k])
    waits = dict.fromkeys(sol.tour, 0.0)
    for (i, _), flights in lanes.items():
        waits[i] = max(waits[i], sum(flights, 0.0))

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
    retraced_searches: int = 0

    def __post_init__(self):
        if abs(self.objective - (self.wait_time + self.travel_time)) > 1e-9:
            raise ValueError(
                f"objective {self.objective} != wait {self.wait_time} + travel {self.travel_time}"
            )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "variant": self.variant.value}


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
        num_drones=_whole(data["num_drones"], "num_drones"),
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
        except InfeasibleInstanceError as err:
            raise InfeasibleInstanceError(f"{path}: {err}") from None
        except (AttributeError, OverflowError, TypeError, ValueError) as err:
            # ValueError includes bad JSON and bad text encoding; OverflowError
            # an integer too large for a float
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
