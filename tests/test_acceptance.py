"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_drone_instance, random_feasible_solution, random_instance
from oracles import (
    brute_force_optimum,
    brute_u_min,
    count_lp_constraints,
    lp_constraint_count,
    lp_umin_constraint_count,
)
from twoecho import (
    ConstructionFailed,
    DeltaCache,
    GenConfig,
    GraspConfig,
    Variant,
    build_time_matrices,
    check_feasibility,
    compute_u_min,
    construct_solution,
    evaluate,
    export_milp,
    export_umin_milp,
    gap_percent,
    generate,
    import_milp_solution,
    local_search,
    run,
    solve_exact,
)
from twoecho.instancegen import assignment_witness, min_fleet_size
from twoecho.localsearch import MULTI_TRIP_OPERATORS, SINGLE_TRIP_OPERATORS
from twoecho.model import save_solution

DATA = Path(__file__).parent / "data" / "appendix_rows.csv"


def _passed(num: int, detail: str):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def _tiny_suite(count=30):
    """Tiny instances (n <= 5, m <= 6, u in 1..3) with an assigned variant."""
    suite = []
    seed = 9000
    while len(suite) < count:
        seed += 1
        n = 3 + (len(suite) % 3)
        m = 4 + (len(suite) % 3)
        u_choice = 1 + (len(suite) % 3)
        variant = Variant.SINGLE if len(suite) % 2 == 0 else Variant.MULTI
        inst = generate(GenConfig(d=20, n_truck=n, m_customers=m, seed=seed))
        mats = build_time_matrices(inst)
        u = max(u_choice, compute_u_min(inst, mats))
        if u > 3:
            continue
        suite.append((inst.replaced(num_drones=u), variant))
    return suite


def test_criterion_1_oracle_equivalence_and_grasp_quality():
    start = time.perf_counter()
    suite = _tiny_suite()
    matches = 0
    for idx, (inst, variant) in enumerate(suite):
        mats = build_time_matrices(inst)
        exact_obj = solve_exact(inst, mats, variant).objective
        oracle_obj = brute_force_optimum(inst, mats, variant)
        assert exact_obj == pytest.approx(oracle_obj, abs=1e-9), (inst.name, variant)
        _, report = run(inst, GraspConfig(variant=variant, n_max=5000, seed=100 + idx), mats=mats)
        assert report.objective >= exact_obj - 1e-9, (inst.name, variant)
        if report.objective <= exact_obj + 1e-6:
            matches += 1
    elapsed = time.perf_counter() - start
    assert matches >= 27, f"heuristic matched the optimum on only {matches}/30"
    assert elapsed < 300, f"suite took {elapsed:.0f}s"
    _passed(
        1,
        f"exhaustive solver equals enumeration oracle on 30/30; heuristic matched "
        f"{matches}/30 and never won; {elapsed:.0f}s total",
    )


def _harvest_operator(op_name, variant, rng, target=1000, max_rounds=4000):
    """Collect accepted moves for one operator, checking each delta exactly."""
    checked = 0
    rounds = 0
    drone_heavy = op_name not in SINGLE_TRIP_OPERATORS or op_name == "re_assignment2"
    while checked < target and rounds < max_rounds:
        rounds += 1
        if variant is Variant.MULTI and drone_heavy:
            inst = dense_drone_instance(rng, m=int(rng.integers(8, 13)), num_drones=3)
            if rounds % 3 == 0:
                inst = random_instance(rng, n_lo=3, n_hi=4, m_lo=8, m_hi=11, u_lo=3, u_hi=3)
        else:
            inst = random_instance(rng, n_lo=5, n_hi=8, m_lo=6, m_hi=10, u_lo=2, u_hi=3)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, variant, rng)
        if sol is None:
            continue
        cache = DeltaCache(sol, inst, mats)
        state = {"prev": evaluate(cache.export_solution(), inst, mats).objective}

        def hook(name, delta):
            nonlocal checked
            cur = evaluate(cache.export_solution(), inst, mats).objective
            assert cur == pytest.approx(state["prev"] + delta, abs=1e-9), name
            state["prev"] = cur
            checked += 1

        cache.on_move = hook
        while getattr(cache, op_name)():
            pass
    return checked


def test_criterion_2_delta_exactness_per_operator():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    shortfall = {}
    for variant, names in (
        (Variant.SINGLE, SINGLE_TRIP_OPERATORS),
        (Variant.MULTI, MULTI_TRIP_OPERATORS),
    ):
        for name in names:
            got = _harvest_operator(name, variant, rng)
            if got < 1000:
                shortfall[(variant.value, name)] = got
    elapsed = time.perf_counter() - start
    assert not shortfall, f"operators under 1000 verified moves: {shortfall}"
    assert elapsed < 60, f"fuzzing took {elapsed:.0f}s"
    _passed(
        2,
        f"1000 accepted moves per operator and variant match re-evaluation "
        f"within 1e-9 h; {elapsed:.0f}s",
    )


def test_criterion_3_feasibility_fuzz():
    rng = np.random.default_rng(31415)
    completed = 0
    violations = 0
    inst = mats = None
    while completed < 10_000:
        if completed % 100 == 0:
            inst = random_instance(rng, n_lo=3, n_hi=5, m_lo=3, m_hi=6, u_lo=1, u_hi=3)
            mats = build_time_matrices(inst)
            u_min = compute_u_min(inst, mats)
            if inst.num_drones < u_min:
                inst = inst.replaced(num_drones=u_min)
                mats = build_time_matrices(inst)
        variant = Variant.SINGLE if completed % 2 == 0 else Variant.MULTI
        try:
            sol = construct_solution(inst, mats, variant, rng)
        except ConstructionFailed:
            continue
        out = local_search(sol, inst, mats)
        violations += len(check_feasibility(out, inst, mats))
        completed += 1
    assert violations == 0
    _passed(3, "10000 construct+improve runs, zero feasibility violations")


def test_criterion_4_published_table_arithmetic():
    with open(DATA) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 80
    for row in rows:
        obj = float(row["Obj"])
        td = float(row["Td"])
        tt = float(row["Tt"])
        tsp = float(row["TSP"])
        gap = float(row["Gap"])
        assert abs(obj - (td + tt)) <= 0.001, row
        assert abs(gap_percent(tsp, obj) - gap) <= 0.01, row
    spot = [r for r in rows if r["Data"] == "30-100" and r["vd"] == "40" and r["u"] == "2"][0]
    assert float(spot["Obj"]) == pytest.approx(0.363 + 6.800)
    assert gap_percent(7.200, 7.163) == pytest.approx(0.51, abs=0.01)
    _passed(4, "all 80 published rows satisfy Obj = Td + Tt and the gap formula")


def test_criterion_5_monotone_trends_at_oracle_level():
    suite = _tiny_suite()
    for inst, _ in suite:
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            base = solve_exact(inst, mats, variant).objective
            more = inst.replaced(num_drones=inst.num_drones + 1)
            assert (
                solve_exact(more, build_time_matrices(more), variant).objective
                <= base + 1e-9
            )
            fast = inst.replaced(drone_speed=80.0)
            assert (
                solve_exact(fast, build_time_matrices(fast), variant).objective
                <= base + 1e-9
            )
        single = solve_exact(inst, mats, Variant.SINGLE).objective
        multi = solve_exact(inst, mats, Variant.MULTI).objective
        assert multi <= single + 1e-9
    _passed(5, "optimum never worsens with more drones, faster drones, or multi-trip")


def test_criterion_6_minimum_fleet_size():
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        serve = []
        for _ in range(m):
            picks = rng.permutation(range(1, n))[: int(rng.integers(1, n))]
            serve.append(tuple(sorted(int(i) for i in picks)))
        u_min = min_fleet_size(serve, n)
        assert u_min == brute_u_min(serve)
        witness = assignment_witness(serve, n, u_min)
        assert witness is not None
        loads = {}
        for k, i in witness.items():
            assert i in serve[k]
            loads[i] = loads.get(i, 0) + 1
        assert max(loads.values()) <= u_min
        if u_min > 1:
            assert assignment_witness(serve, n, u_min - 1) is None
    _passed(6, "minimum fleet size equals brute force on 50 structures, with witnesses")


def test_criterion_7_lp_export_counts_and_round_trip(tmp_path):
    rng = np.random.default_rng(707)
    for _ in range(10):
        inst = random_instance(rng, n_lo=3, n_hi=7, m_lo=3, m_hi=9, u_lo=1, u_hi=3)
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            text = export_milp(inst, mats, variant, big_m=50.0)
            assert count_lp_constraints(text) == lp_constraint_count(inst, mats, variant)
        umin = export_umin_milp(inst, mats)
        assert count_lp_constraints(umin) == lp_umin_constraint_count(inst, mats)

    inst = generate(GenConfig(d=20, n_truck=3, m_customers=1, seed=77))
    mats = build_time_matrices(inst)
    export_milp(inst, mats, Variant.SINGLE, big_m=10.0, path=tmp_path / "model.lp")
    best = solve_exact(inst, mats, Variant.SINGLE)
    i = best.solution.assign[0]
    values = tmp_path / "values.sol"
    values.write_text(
        f"x_0_{i} 1\nx_{i}_{inst.n} 1\ny_{i} 1\nz_{i}_0 1\n"
        f"a_{i} {mats.t[0][i]}\ns_{i} {mats.trip[i][0]}\n"
        f"a_{inst.n} {best.objective}\n"
    )
    sol = import_milp_solution(values, inst, mats)
    assert sol.objective == pytest.approx(best.objective, abs=1e-9)
    _passed(7, "constraint counts match the symbolic tally; value files round-trip")


def test_criterion_8_performance_smoke():
    inst = generate(GenConfig(d=20, n_truck=20, m_customers=10, seed=42))
    mats = build_time_matrices(inst)
    inst = inst.replaced(num_drones=max(2, compute_u_min(inst, mats)))
    times = {}
    for variant in (Variant.SINGLE, Variant.MULTI):
        _, report = run(inst, GraspConfig(variant=variant, n_max=5000, seed=1))
        assert report.iterations == 5000
        assert report.wall_time < 10.0, f"{variant.value} took {report.wall_time:.1f}s"
        times[variant.value] = report.wall_time
    _passed(
        8,
        "5000 iterations on a 20-node/10-customer instance: "
        + ", ".join(f"{k} {v:.1f}s" for k, v in times.items()),
    )


def test_criterion_9_byte_identical_determinism(tmp_path):
    inst = generate(GenConfig(d=20, n_truck=6, m_customers=8, seed=55)).replaced(
        num_drones=2
    )
    paths = []
    for tag in ("a", "b"):
        best, _ = run(inst, GraspConfig(variant=Variant.MULTI, n_max=400, seed=9, threads=1))
        path = tmp_path / f"{tag}.json"
        save_solution(best, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _passed(9, "identical seed and thread count give byte-identical solution files")
