import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_instance
from twoecho import (
    InfeasibleInstanceError,
    InfeasibleSolutionError,
    RunReport,
    Solution,
    Variant,
    build_time_matrices,
    check_feasibility,
    evaluate,
    node_wait_multi,
    node_wait_single,
)
from twoecho.model import (
    CapacityExceededError,
    CapacityViolation,
    DepotLaunchViolation,
    RangeViolation,
    UnassignedCustomer,
    instance_from_json_dict,
    instance_to_json_dict,
)


def test_truck_time_manhattan():
    inst = make_instance([(0, 0), (3, 4)], [], truck_speed=40)
    mats = build_time_matrices(inst)
    assert mats.t[0][1] == pytest.approx((3 + 4) / 40)  # 0.175 h
    assert mats.t[0][1] == mats.t[1][0]


def test_drone_time_euclidean():
    inst = make_instance([(0, 0)], [(3, 4)], drone_speed=50)
    mats = build_time_matrices(inst)
    assert mats.trip[0][0] == pytest.approx(2 * 5 / 50)  # 0.1 h each way


def test_unreachable_customer_makes_instance_invalid():
    # 2 * 11 km / 40 km/h = 0.55 h exceeds the 0.5 h endurance everywhere
    with pytest.raises(InfeasibleInstanceError):
        make_instance([(0, 0)], [(11, 0)], drone_speed=40, endurance=0.5)


def test_reach_sets_are_duals():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, m_lo=5, m_hi=8)
    mats = build_time_matrices(inst)
    for i in range(inst.n):
        for k in range(inst.m):
            assert (k in mats.w_sets[i]) == bool(mats.reach[i][k])
            # v_serve leaves out the depot, which never launches drones
            assert (k in mats.w_sets[i] and i > 0) == (i in mats.v_serve[k])
    assert np.allclose(mats.t, np.transpose(mats.t))
    for i in range(inst.n):
        for j in range(inst.n):
            for k in range(inst.n):
                assert mats.t[i][j] <= mats.t[i][k] + mats.t[k][j] + 1e-12


def test_node_wait_single_cases():
    assert node_wait_single([0.5, 0.8], 2) == pytest.approx(0.8)
    assert node_wait_single([], 4) == 0.0
    assert node_wait_single([0.3, 0.3, 0.3], 3) == pytest.approx(0.3)
    with pytest.raises(CapacityExceededError):
        node_wait_single([0.1, 0.2, 0.3], 2)


def test_node_wait_multi_cases():
    assert node_wait_multi([[0.5, 0.8], [0.6]]) == pytest.approx(1.3)
    assert node_wait_multi([[0.5, 0.8, 0.6]]) == pytest.approx(1.9)
    assert node_wait_multi([[], []]) == 0.0


@given(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
def test_single_wait_never_exceeds_multi_wait(trips):
    u = len(trips)
    singletons = [[t] for t in trips]
    assert node_wait_single(trips, u) == pytest.approx(node_wait_multi(singletons))
    lumped = [list(trips)]
    assert node_wait_single(trips, u) <= node_wait_multi(lumped) + 1e-12


def test_evaluate_one_stop():
    inst = make_instance([(0, 0), (8, 0)], [(8, 8)], truck_speed=40, drone_speed=40)
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0, 1], {0: 1})
    ev = evaluate(sol, inst, mats)
    assert ev.objective == pytest.approx(0.2 + 0.4 + 0.2)
    assert ev.arrivals == {0: 0.0, 1: pytest.approx(0.2)}
    assert ev.waits[1] == pytest.approx(0.4)
    assert sol.objective == ev.objective


def test_evaluate_empty():
    inst = make_instance([(0, 0), (5, 5)], [])
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0], {})
    assert evaluate(sol, inst, mats).objective == 0.0


def test_objective_splits_into_travel_and_wait():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng, u_lo=2)
        mats = build_time_matrices(inst)
        from helpers import random_feasible_solution

        for variant in (Variant.SINGLE, Variant.MULTI):
            sol = random_feasible_solution(inst, mats, variant, rng)
            if sol is None:
                continue
            ev = evaluate(sol, inst, mats)
            assert ev.objective == pytest.approx(ev.travel_time + ev.wait_time, abs=1e-9)


def test_run_report_identity_from_published_row():
    # 30-100 at drone speed 40 with 2 drones: 7.163 = 0.363 + 6.800
    report = RunReport(
        instance="30-100",
        variant=Variant.MULTI,
        num_drones=2,
        drone_speed=40,
        visited=97,
        objective=7.163,
        wait_time=0.363,
        travel_time=6.800,
        gap=0.51,
        iterations=50000,
        wall_time=270.48,
    )
    assert report.objective == pytest.approx(report.wait_time + report.travel_time)
    with pytest.raises(ValueError):
        RunReport(
            instance="x",
            variant=Variant.SINGLE,
            num_drones=1,
            drone_speed=40,
            visited=1,
            objective=2.0,
            wait_time=0.5,
            travel_time=1.0,
            gap=None,
            iterations=1,
            wall_time=0.0,
        )


def test_evaluate_rejects_infeasible():
    inst = make_instance([(0, 0), (8, 0)], [(8, 8)])
    mats = build_time_matrices(inst)
    with pytest.raises(InfeasibleSolutionError) as err:
        evaluate(Solution(Variant.SINGLE, [0, 1], {}), inst, mats)
    assert any(isinstance(v, UnassignedCustomer) for v in err.value.violations)


def test_check_feasibility_cases():
    inst = make_instance([(0, 0), (8, 0), (0, 20)], [(8, 4), (8, 6)], num_drones=1)
    mats = build_time_matrices(inst)

    good = Solution(Variant.MULTI, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 0})
    assert check_feasibility(good, inst, mats) == []

    # single-trip capacity: two customers on one node with one drone
    single = Solution(Variant.SINGLE, [0, 1], {0: 1, 1: 1})
    v = check_feasibility(single, inst, mats)
    assert any(isinstance(x, CapacityViolation) for x in v)

    # out of range: node 2 is ~18 km from customer 0
    ranged = Solution(Variant.SINGLE, [0, 1, 2], {0: 2, 1: 1})
    v = check_feasibility(ranged, inst, mats)
    assert any(isinstance(x, RangeViolation) for x in v)

    # depot launches are forbidden
    depot = Solution(Variant.SINGLE, [0, 1], {0: 0, 1: 1})
    v = check_feasibility(depot, inst, mats)
    assert any(isinstance(x, DepotLaunchViolation) for x in v)


def test_evaluate_independent_of_dict_order():
    inst = make_instance([(0, 0), (8, 0), (0, 8)], [(8, 6), (0, 6)], num_drones=2, endurance=1.0)
    mats = build_time_matrices(inst)
    a = Solution(Variant.SINGLE, [0, 1, 2], {0: 1, 1: 2})
    b = Solution(Variant.SINGLE, [0, 1, 2], dict(reversed(list({0: 1, 1: 2}.items()))))
    assert evaluate(a, inst, mats).objective == evaluate(b, inst, mats).objective


@settings(max_examples=25, deadline=None)
@given(scale=st.sampled_from([0.5, 2.0, 3.0]), seed=st.integers(0, 10**6))
def test_metric_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    from helpers import random_feasible_solution

    sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
    if sol is None:
        return
    base = evaluate(sol, inst, mats).objective
    scaled = make_instance(
        [(p.x * scale, p.y * scale) for p in inst.truck_nodes],
        [(p.x * scale, p.y * scale) for p in inst.customers],
        truck_speed=inst.truck_speed,
        drone_speed=inst.drone_speed,
        endurance=inst.endurance * scale,
        num_drones=inst.num_drones,
        d=inst.d * scale,
    )
    mats2 = build_time_matrices(scaled)
    again = evaluate(sol.copy(), scaled, mats2).objective
    assert again == pytest.approx(base * scale, rel=1e-9)


def test_solution_json_roundtrip():
    sol = Solution(Variant.MULTI, [0, 2, 1], {0: 2, 1: 1}, {0: 1, 1: 0})
    sol.objective = 1.25
    sol.waits = {1: 0.5, 2: 0.25}
    sol.arrivals = {0: 0.0, 1: 0.3, 2: 0.9}
    back = Solution.from_json_dict(json.loads(json.dumps(sol.to_json_dict())))
    assert back.canonical_json() == sol.canonical_json()


def test_instance_json_roundtrip_ignores_unknown_keys():
    inst = make_instance([(0, 0), (1, 2)], [(1, 3)], num_drones=2)
    data = instance_to_json_dict(inst)
    data["some_future_field"] = {"nested": True}
    back = instance_from_json_dict(data)
    assert back.truck_nodes == inst.truck_nodes
    assert back.customers == inst.customers
    assert back.num_drones == 2


def test_instance_file_keeps_generator_meta(tmp_path):
    from twoecho import GenConfig, generate, generate_coincident, load_instance, save_instance

    for inst in (
        generate(GenConfig(d=20, n_truck=4, m_customers=5, seed=17)),
        generate_coincident(d=15, n_total=6, seed=5),
    ):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_instance(inst, first)
        back = load_instance(first)
        assert back.meta == inst.meta
        save_instance(back, second)
        assert second.read_bytes() == first.read_bytes()


def test_instance_meta_never_overwrites_core_fields():
    inst = make_instance([(0, 0), (1, 2)], [(1, 3)], num_drones=2).replaced(
        meta={"name": "other", "num_drones": 9, "note": "kept"}
    )
    data = instance_to_json_dict(inst)
    assert data["name"] == "test"
    assert data["num_drones"] == 2
    assert data["note"] == "kept"
    back = instance_from_json_dict(data)
    assert back.num_drones == 2
    assert back.meta == {"note": "kept"}
