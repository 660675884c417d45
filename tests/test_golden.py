"""Frozen behaviour: SHA-256 hashes of canonical solutions for fixed cases.

Construction and single-threaded GRASP are deterministic in (instance,
variant, seed, n_max), so a change that keeps every search decision keeps
every hash. The hashes were recorded before construction and local search
were rewritten for speed. A change that is meant to alter the search path
must regenerate them and say why in ``CHANGES.md``.

A construction case hashes a sequence of ``construct_solution`` calls on one
generator, failed attempts included, and then the generator's next draw, so
a rewrite that draws the random stream in another order fails here even when
the solutions happen to match. It hashes the ``local_search`` result of each
constructed solution separately, because many runs find their best solution
early and would hide a changed search path.

The approximate TSP case hashes ``solve_tsp``'s tours over coincident
instances of 17 to 60 nodes, past the exact limit, so a rewrite of the tour
moves must keep their scan order and arithmetic.

An exact case hashes ``solve_exact``'s solutions and search counts on one
generated instance, in both variants at the minimum fleet and one drone
more, so a rewrite of the enumeration must keep its optimum, its tie-breaks
and how much it enumerated.

The last bits of a multi-trip drone load depend on how ``sum`` adds floats,
and CPython 3.12 made that a compensated sum, so the hashes hold for the
interpreters before it.
"""

import hashlib
import sys

import numpy as np
import pytest

from twoecho import (
    ConstructionFailed,
    ExactLimits,
    GenConfig,
    GraspConfig,
    Variant,
    build_time_matrices,
    compute_u_min,
    construct_solution,
    generate,
    generate_coincident,
    local_search,
    run,
    solve_exact,
    solve_tsp,
)

S, M = Variant.SINGLE, Variant.MULTI

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="hashes recorded with the plain float sum of CPython < 3.12"
)


def _generated(n, m, seed, min_drones=1):
    inst = generate(GenConfig(d=20, n_truck=n, m_customers=m, seed=seed))
    u = compute_u_min(inst, build_time_matrices(inst))
    return inst.replaced(num_drones=max(min_drones, u))


INSTANCES = {
    # single-trip construction fails on about a quarter of the attempts
    "tiny": lambda: _generated(4, 6, 1),
    "small": lambda: _generated(8, 12, 3),
    # the acceptance-criterion-8 instance
    "c8": lambda: _generated(20, 10, 42, min_drones=2),
    # u = 1: single-trip construction fails on most attempts
    "c8-tight": lambda: _generated(20, 10, 9),
    "coincident40": lambda: generate_coincident(d=30.0, n_total=40, seed=3).replaced(
        drone_speed=60.0, num_drones=3
    ),
    "random40": lambda: _generated(40, 60, 5, min_drones=2),
}

# (instance, variant, seed, attempts): expected construction hash, local
# search hash and failure count
CONSTRUCT_CASES = {
    ("tiny", S, 0, 200): ("b4207a179412a196", "9bccc2e149f82601", 58),
    ("tiny", M, 0, 200): ("4e47fa8e37d85b97", "dda7eb7cc83a9168", 0),
    ("small", S, 1, 100): ("f21660cb22ae5c8c", "804ee5b94c5a222a", 31),
    ("small", M, 1, 100): ("b8c02f41e48f779f", "5f6faef1e9e1bdb5", 0),
    ("c8", S, 2, 100): ("1912cfcc3d2d6cee", "160b65a53200ed82", 0),
    ("c8", M, 2, 100): ("25b11b821c03b680", "a2954a9ae172a54b", 0),
    ("c8-tight", S, 3, 100): ("45a983e3010a432b", "d961788cac271801", 67),
    ("c8-tight", M, 3, 100): ("131e72e88ce88c00", "fa29f92b000b06a7", 0),
    ("coincident40", S, 4, 20): ("5c5da4276f947b92", "09c13eef1b3c0479", 0),
    ("coincident40", M, 4, 20): ("347b44038cfed2a7", "a7432cc274e985ad", 0),
    ("random40", S, 5, 20): ("6962a8e666777f00", "4a177eede62cb6c0", 5),
    ("random40", M, 5, 20): ("4869fd063883cea4", "07402267e448a167", 0),
}

# (instance, variant, seed, n_max): expected hash prefix of the best solution
RUN_CASES = {
    ("tiny", S, 3, 400): "b4daf231d5005e9f",
    ("tiny", M, 3, 400): "b2bbc6bc66b49be5",
    ("small", S, 4, 200): "c254485e45c35c85",
    ("small", M, 4, 200): "7d8b0d3740e97090",
    ("c8", S, 1, 300): "275f8c31c6ce901e",
    ("c8", M, 1, 300): "df45a46e881d7458",
    ("c8-tight", S, 5, 200): "219bf4641a085a21",
    ("coincident40", S, 6, 10): "e5c48691f3520161",
    ("coincident40", M, 6, 10): "e74c4a5c8c13df6f",
    ("random40", S, 7, 6): "58a8c45fe7f4f20b",
    ("random40", M, 7, 6): "a807b787d1bc5035",
}

# (truck nodes, customers, generator seed): expected hash prefix of the four
# exact solutions and their search counts
EXACT_CASES = {
    (4, 3, 1): "c678e921d4e5f3ab",
    (5, 4, 2): "debf05eb94f3c152",
    (6, 5, 3): "d6dd3b4bdde4a92d",
    (7, 5, 4): "6fb83daaaac6e1e8",
    (7, 6, 5): "d23cfcb10a24c9d1",
    (8, 6, 6): "56f3558feb86ce1b",
    (9, 6, 7): "1fdb9b13488b9b69",
    (9, 7, 8): "985e28dd338935d2",
    (10, 7, 9): "c106bc4b53334f0a",
    (10, 8, 10): "80bc797bb7aa2cdf",
    (11, 7, 11): "82f3f8e4c09319db",
    (12, 8, 12): "711d6f7603adaf86",
}


def _digest(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def construct_fingerprint(name, variant, seed, attempts):
    inst = INSTANCES[name]()
    mats = build_time_matrices(inst)
    rng = np.random.default_rng(seed)
    built, improved, failures = [], [], 0
    for _ in range(attempts):
        try:
            sol = construct_solution(inst, mats, variant, rng)
        except ConstructionFailed:
            built.append("failed")
            failures += 1
            continue
        built.append(sol.canonical_json())
        improved.append(local_search(sol, inst, mats).canonical_json())
    built.append(repr(rng.random()))
    return _digest(built), _digest(improved), failures


def run_fingerprint(name, variant, seed, n_max):
    inst = INSTANCES[name]()
    best, _ = run(inst, GraspConfig(variant=variant, n_max=n_max, seed=seed))
    return _digest([best.canonical_json()])


def exact_fingerprint(n, m, seed):
    inst = generate(GenConfig(d=20, n_truck=n, m_customers=m, seed=seed))
    u_min = compute_u_min(inst, build_time_matrices(inst))
    parts = []
    for u in (u_min, u_min + 1):
        fleet = inst.replaced(num_drones=u)
        mats = build_time_matrices(fleet)
        for variant in (S, M):
            res = solve_exact(fleet, mats, variant, ExactLimits(max_truck_nodes=12))
            parts.append(res.solution.canonical_json())
            parts.append(f"{res.proof.subsets} {res.proof.assignments}")
    return _digest(parts)


def approximate_tsp_fingerprint():
    parts = []
    for n in (17, 20, 25, 30, 40, 60):
        for seed in range(4):
            inst = generate_coincident(d=30.0, n_total=n, seed=seed)
            r = solve_tsp(inst.truck_nodes, inst.truck_speed)
            parts.append(repr((r.tour, r.objective, r.exact)))
    return _digest(parts)


def _case_id(case):
    name, variant, seed, size = case
    return f"{name}-{variant.value}-{seed}-{size}"


@pytest.mark.parametrize("case", list(CONSTRUCT_CASES), ids=_case_id)
def test_construction_sequence_frozen(case):
    assert construct_fingerprint(*case) == CONSTRUCT_CASES[case]


@pytest.mark.parametrize("case", list(RUN_CASES), ids=_case_id)
def test_single_threaded_run_frozen(case):
    assert run_fingerprint(*case) == RUN_CASES[case]


@pytest.mark.parametrize("case", list(EXACT_CASES), ids=lambda c: "n{}-m{}-s{}".format(*c))
def test_exact_solutions_frozen(case):
    assert exact_fingerprint(*case) == EXACT_CASES[case]


def test_approximate_tsp_frozen():
    assert approximate_tsp_fingerprint() == "44d13e4de3a9687e"


def test_frozen_cases_include_construction_failures():
    single = [f for (_, v, _, _), (_, _, f) in CONSTRUCT_CASES.items() if v is S]
    assert sum(1 for f in single if f > 0) >= 2
