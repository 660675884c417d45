"""Shared builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from twoecho import (
    GenConfig,
    Instance,
    Point,
    Solution,
    Variant,
    build_time_matrices,
    evaluate,
    generate,
)
from twoecho.localsearch import SINGLE_TRIP_OPERATORS


def make_instance(
    truck,
    customers,
    truck_speed=40.0,
    drone_speed=40.0,
    endurance=0.5,
    num_drones=1,
    d=None,
    name="test",
):
    pts = [Point(*p) for p in truck]
    cs = [Point(*p) for p in customers]
    if d is None:
        coords = [c for p in pts + cs for c in p] or [1.0]
        d = max(max(coords), 1.0)
    return Instance(
        name=name,
        d=d,
        truck_nodes=tuple(pts),
        customers=tuple(cs),
        truck_speed=truck_speed,
        drone_speed=drone_speed,
        endurance=endurance,
        num_drones=num_drones,
    )


def random_instance(rng, n_lo=3, n_hi=6, m_lo=3, m_hi=8, u_lo=1, u_hi=3, d=20.0):
    """Random feasible instance via the generator, with a random fleet size."""
    cfg = GenConfig(
        d=d,
        n_truck=int(rng.integers(n_lo, n_hi + 1)),
        m_customers=int(rng.integers(m_lo, m_hi + 1)),
        seed=int(rng.integers(2**63)),
    )
    inst = generate(cfg)
    return inst.replaced(num_drones=int(rng.integers(u_lo, u_hi + 1)))


def random_feasible_solution(inst, mats, variant, rng, max_tries=50):
    """Uniformly random assignment and tour order; None if capacity blocks it."""
    for _ in range(max_tries):
        counts = {}
        assign = {}
        ok = True
        for k in rng.permutation(inst.m):
            k = int(k)
            options = [
                i
                for i in mats.v_serve[k]
                if variant is Variant.MULTI or counts.get(i, 0) < inst.num_drones
            ]
            if not options:
                ok = False
                break
            i = int(options[rng.integers(len(options))])
            assign[k] = i
            counts[i] = counts.get(i, 0) + 1
        if not ok:
            continue
        used = sorted(set(assign.values()))
        order = [used[int(j)] for j in rng.permutation(len(used))]
        drone_of = None
        if variant is Variant.MULTI:
            drone_of = {k: int(rng.integers(inst.num_drones)) for k in range(inst.m)}
        sol = Solution(variant, [0] + order, assign, drone_of)
        evaluate(sol, inst, mats)
        return sol
    return None


def operator_instance(op_name, variant, rng, rounds):
    """An instance on which local-search operator ``op_name`` finds moves.

    The drone-heavy multi-trip operators get one serving node that every
    customer lands on, or every third round three or four nodes with many
    customers; every other operator gets a spread random instance.
    """
    drone_heavy = op_name not in SINGLE_TRIP_OPERATORS or op_name == "re_assignment2"
    if variant is not Variant.MULTI or not drone_heavy:
        return random_instance(rng, n_lo=5, n_hi=8, m_lo=6, m_hi=10, u_lo=2, u_hi=3)
    m = int(rng.integers(8, 13))
    cfg = GenConfig(d=20.0, n_truck=2, m_customers=m, seed=int(rng.integers(2**63)))
    inst = generate(cfg).replaced(num_drones=3)
    if rounds % 3 == 0:
        inst = random_instance(rng, n_lo=3, n_hi=4, m_lo=8, m_hi=11, u_lo=3, u_hi=3)
    return inst


def mats_for(inst):
    return build_time_matrices(inst)


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, timeout=120):
    """Run a fresh interpreter that imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=timeout
    )
