"""Random instance generation and the minimum-fleet-size computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    InfeasibleInstanceError,
    Instance,
    Point,
    TimeMatrices,
    TwoEchoError,
    check_vehicles,
)

MAX_DRAWS_PER_CUSTOMER = 10**6
RNG_NAME = "numpy-pcg64"
# km/h; customers are placed, and fleets sized, for the slowest drone of the speed grid
REFERENCE_DRONE_SPEED = 40.0


class GenerationError(TwoEchoError):
    """Customer sampling kept missing the reachable region; config is pathological."""


@dataclass(frozen=True)
class GenConfig:
    """Parameters for random square instances.

    Customers are resampled until each lies within drone range of at least
    one launch-capable truck node, judged at ``drone_speed`` or
    ``REFERENCE_DRONE_SPEED``, whichever is slower, so one geometry stays
    feasible across the whole speed grid and at the config's own speed.
    """

    d: float
    n_truck: int
    m_customers: int
    truck_speed: float = 40.0
    drone_speed: float = 40.0
    endurance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_square(self.d)
        _check_seed(self.seed)
        if self.n_truck < 1 or self.m_customers < 0:
            raise ValueError(
                f"need n_truck >= 1 (truck nodes) and m_customers >= 0 (customers), "
                f"got {self.n_truck} and {self.m_customers}"
            )
        # a NaN or infinite reach radius would make customer sampling spin
        check_vehicles(self.truck_speed, self.drone_speed, self.endurance)


def _check_square(d: float) -> None:
    if not 0 < d < math.inf:
        raise ValueError(f"square dimension d must be positive and finite, got {d}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")


def generate(cfg: GenConfig) -> Instance:
    """Generate a random instance named ``d-n-m``, deterministic in the seed.

    Truck nodes are uniform in the square. Each customer draw is rejected
    until it is reachable (round trip within endurance at the sampling
    speed of :class:`GenConfig`) from a non-depot truck node; the depot
    never launches drones, so depot-only reachability would make the
    customer unservable.
    """
    rng = np.random.default_rng(cfg.seed)
    truck = rng.uniform(0.0, cfg.d, size=(cfg.n_truck, 2))
    radius = cfg.endurance * min(cfg.drone_speed, REFERENCE_DRONE_SPEED) / 2.0
    launch_sites = truck[1:]
    if cfg.m_customers > 0 and len(launch_sites) == 0:
        raise GenerationError("no launch-capable truck node: every customer would be unservable")

    customers = []
    for _ in range(cfg.m_customers):
        for attempt in range(MAX_DRAWS_PER_CUSTOMER):
            p = rng.uniform(0.0, cfg.d, size=2)
            dist2 = ((launch_sites - p) ** 2).sum(axis=1)
            if dist2.min() <= radius * radius:
                customers.append(p)
                break
        else:
            raise GenerationError(
                f"gave up after {MAX_DRAWS_PER_CUSTOMER} draws; reach radius {radius} km "
                f"covers too little of the {cfg.d}x{cfg.d} square"
            )

    name = f"{cfg.d:g}-{cfg.n_truck}-{cfg.m_customers}"
    return Instance(
        name=name,
        d=cfg.d,
        truck_nodes=tuple(Point(*row) for row in truck),
        customers=tuple(Point(*row) for row in customers),
        truck_speed=cfg.truck_speed,
        drone_speed=cfg.drone_speed,
        endurance=cfg.endurance,
        num_drones=1,
        meta={"seed": cfg.seed, "rng": RNG_NAME},
    )


def generate_coincident(
    d: float,
    n_total: int,
    seed: int,
    truck_speed: float = 40.0,
    drone_speed: float = 40.0,
    endurance: float = 0.5,
    num_drones: int = 2,
) -> Instance:
    """Instance named ``d-n_total`` where every non-depot node is also a customer.

    Used for the truck-only-versus-drones comparison: the truck may stop at
    any node; each customer can be served for free from its own node.
    """
    _check_square(d)
    _check_seed(seed)
    if n_total < 2:
        raise GenerationError("coincident instances need at least a depot and one node")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, d, size=(n_total, 2))
    nodes = tuple(Point(*row) for row in pts)
    return Instance(
        name=f"{d:g}-{n_total}",
        d=d,
        truck_nodes=nodes,
        customers=nodes[1:],
        truck_speed=truck_speed,
        drone_speed=drone_speed,
        endurance=endurance,
        num_drones=num_drones,
        meta={"seed": seed, "rng": RNG_NAME, "coincident": True},
    )


# --- minimum fleet size -------------------------------------------------------


def assignment_witness(
    serve_sets: Sequence[Sequence[int]], num_nodes: int, cap: int
) -> dict[int, int] | None:
    """Assign each customer to one of its candidate nodes with at most ``cap``
    customers per node; returns the assignment or None if impossible.

    Solves the max-flow source -> customer (1) -> node (1) -> sink (cap) by
    augmenting paths: each customer in turn searches breadth-first for a node
    with room, where a full node lets one of its customers move on, and the
    customers on the path found each move one node along it. A customer with
    no such path cannot be added to any assignment of the ones before it.
    """
    if serve_sets and cap < 1:
        return None
    witness: dict[int, int] = {}
    members: list[list[int]] = [[] for _ in range(num_nodes)]
    for k in range(len(serve_sets)):
        mover: dict[int, int] = {}  # node reached -> customer that would move into it
        queue = [k]
        free = None
        for c in queue:  # the queue grows while it is read
            for i in serve_sets[c]:
                if i in mover:
                    continue
                mover[i] = c
                if len(members[i]) < cap:
                    free = i
                    break
                queue.extend(members[i])
            if free is not None:
                break
        if free is None:
            return None
        node = free
        while node is not None:
            c = mover[node]
            prev = witness.get(c)
            witness[c] = node
            members[node].append(c)
            if prev is not None:
                members[prev].remove(c)
            node = prev
    return witness


def min_fleet_size(serve_sets: Sequence[Sequence[int]], num_nodes: int) -> int:
    """Binary search for the smallest per-node cap admitting a full assignment."""
    for k, sites in enumerate(serve_sets):
        if not sites:
            raise InfeasibleInstanceError(
                f"customer {k} has no launch-capable truck node within drone range"
            )
    lo, hi = 1, len(serve_sets)
    while lo < hi:
        mid = (lo + hi) // 2
        if assignment_witness(serve_sets, num_nodes, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return lo


def compute_u_min(inst: Instance, mats: TimeMatrices) -> int:
    """Smallest fleet size under which every customer can be assigned to a
    reachable launch node with at most that many customers per node."""
    return min_fleet_size(mats.v_serve, inst.n)
