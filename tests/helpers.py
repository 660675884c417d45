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


def dense_drone_instance(rng, m=10, num_drones=3, d=20.0):
    """One serving node only: every customer lands there, stressing drone moves."""
    cfg = GenConfig(d=d, n_truck=2, m_customers=m, seed=int(rng.integers(2**63)))
    return generate(cfg).replaced(num_drones=num_drones)


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
