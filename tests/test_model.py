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
)
from twoecho.model import instance_from_json_dict, instance_to_json_dict


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


@pytest.mark.parametrize(
    "changes",
    [
        {"truck_speed": float("inf"), "drone_speed": float("inf")},
        {"drone_speed": float("inf")},
        {"endurance": float("inf")},
        {"endurance": float("nan")},
    ],
)
def test_non_finite_speeds_and_endurance_make_instance_invalid(changes):
    inst = make_instance([(0, 0), (4, 0)], [(4, 3)])
    with pytest.raises(InfeasibleInstanceError):
        inst.replaced(**changes)


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


def _one_stop(trips, num_drones):
    """A depot and one stop; customer k's round trip from the stop takes trips[k] hours."""
    customers = [(20.0 * t, 0.0) for t in trips]
    inst = make_instance([(0, 50), (0, 0)], customers, endurance=1.0, num_drones=num_drones)
    return inst, build_time_matrices(inst)


def _stop_wait(inst, mats, variant, drone_of=None):
    """The wait that ``evaluate`` gives the one stop, which serves every customer."""
    tour = [0, 1] if inst.m else [0]
    sol = Solution(variant, tour, {k: 1 for k in range(inst.m)}, drone_of)
    return evaluate(sol, inst, mats).waits[tour[-1]]


def test_node_wait_single_cases():
    assert _stop_wait(*_one_stop([0.5, 0.8], 2), Variant.SINGLE) == pytest.approx(0.8)
    assert _stop_wait(*_one_stop([], 4), Variant.SINGLE) == 0.0
    assert _stop_wait(*_one_stop([0.3, 0.3, 0.3], 3), Variant.SINGLE) == pytest.approx(0.3)
    with pytest.raises(InfeasibleSolutionError, match="node 1 serves more customers than"):
        _stop_wait(*_one_stop([0.1, 0.2, 0.3], 2), Variant.SINGLE)


def test_node_wait_multi_cases():
    inst, mats = _one_stop([0.5, 0.8, 0.6], 2)
    assert _stop_wait(inst, mats, Variant.MULTI, {0: 0, 1: 0, 2: 1}) == pytest.approx(1.3)
    inst, mats = _one_stop([0.5, 0.8, 0.6], 1)
    assert _stop_wait(inst, mats, Variant.MULTI, {0: 0, 1: 0, 2: 0}) == pytest.approx(1.9)
    assert _stop_wait(*_one_stop([], 2), Variant.MULTI, {}) == 0.0


@settings(deadline=None)
@given(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
def test_single_wait_never_exceeds_multi_wait(trips):
    # a single-trip stop waits exactly as long as the multi-trip one that
    # flies each flight on its own drone, and never longer than one drone
    # flying them all
    inst, mats = _one_stop(trips, len(trips))
    single = _stop_wait(inst, mats, Variant.SINGLE)
    assert single == _stop_wait(inst, mats, Variant.MULTI, {k: k for k in range(inst.m)})
    assert single <= _stop_wait(inst, mats, Variant.MULTI, dict.fromkeys(range(inst.m), 0))


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
    assert any(v.kind == "unassigned" for v in err.value.violations)


def test_check_feasibility_cases():
    inst = make_instance([(0, 0), (8, 0), (0, 20)], [(8, 4), (8, 6)], num_drones=1)
    mats = build_time_matrices(inst)

    good = Solution(Variant.MULTI, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 0})
    assert check_feasibility(good, inst, mats) == []

    # single-trip capacity: two customers on one node with one drone
    single = Solution(Variant.SINGLE, [0, 1], {0: 1, 1: 1})
    v = check_feasibility(single, inst, mats)
    assert any(x.kind == "capacity" for x in v)

    # out of range: node 2 is ~18 km from customer 0
    ranged = Solution(Variant.SINGLE, [0, 1, 2], {0: 2, 1: 1})
    v = check_feasibility(ranged, inst, mats)
    assert any(x.kind == "range" for x in v)

    # depot launches are forbidden
    depot = Solution(Variant.SINGLE, [0, 1], {0: 0, 1: 1})
    v = check_feasibility(depot, inst, mats)
    assert any(x.kind == "depot" for x in v)


def test_violation_messages_are_pinned():
    # one broken solution per violation kind, and one with several kinds,
    # which also pins the order of the checks
    inst = make_instance([(0, 0), (8, 0), (0, 20)], [(8, 4), (8, 6)], num_drones=1)
    mats = build_time_matrices(inst)
    S, M = Variant.SINGLE, Variant.MULTI
    unvisited = "customer {} is assigned to node {} which the truck never visits"
    capacity = "node 1 serves more customers than there are drones"
    no_drone = "customer {} has no valid drone index"
    depot = "customer 0 is assigned to the depot, which cannot launch drones"
    cases = [
        (Solution(S, [0, 1, 1], {0: 1, 1: 1}), ["tour: repeats a node", capacity]),
        (Solution(S, [0, 1, 5], {0: 1, 1: 1}), ["tour: unknown node indices [5]"]),
        (
            Solution(M, [0, 1], {0: 1, 1: 1, 7: 1}, {0: 0, 1: 0}),
            ["assignment references unknown customer 7"],
        ),
        (Solution(S, [0, 1], {0: 1}), ["customer 1 is not assigned to any stop"]),
        (Solution(S, [0, 1], {0: 0, 1: 1}), [depot]),
        (Solution(S, [0, 1], {0: 9, 1: 1}), [unvisited.format(0, 9)]),
        (
            Solution(S, [0, 1], {0: 2, 1: 1}),
            [unvisited.format(0, 2), "customer 0 is out of drone range from node 2"],
        ),
        (Solution(S, [0, 1, 2], {0: 2, 1: 1}), ["customer 0 is out of drone range from node 2"]),
        (Solution(S, [0, 1], {0: 1, 1: 1}), [capacity]),
        (Solution(M, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 3}), [no_drone.format(1)]),
        (Solution(M, [0, 1], {0: 1, 1: 1}), [no_drone.format(0), no_drone.format(1)]),
        (Solution(M, [0, 1, 2], {0: 1, 1: 1}, {0: 0, 1: 0}), ["visited node 2 serves no customer"]),
        (
            Solution(S, [], {0: 1, 1: 1}),
            [
                "tour: must start at the depot (node 0)",
                unvisited.format(0, 1),
                unvisited.format(1, 1),
                capacity,
            ],
        ),
        (
            Solution(S, [1, 2, 2], {0: 0, 1: 2, 4: 1}),
            [
                "tour: must start at the depot (node 0)",
                "tour: repeats a node",
                "assignment references unknown customer 4",
                depot,
                "customer 1 is out of drone range from node 2",
            ],
        ),
    ]
    for sol, expected in cases:
        assert [str(v) for v in check_feasibility(sol, inst, mats)] == expected, sol


def test_each_violation_carries_its_kind():
    inst = make_instance([(0, 0), (8, 0), (0, 20)], [(8, 4), (8, 6)], num_drones=1)
    mats = build_time_matrices(inst)
    S, M = Variant.SINGLE, Variant.MULTI
    cases = [
        (Solution(S, [1, 2, 2], {0: 0, 1: 2, 4: 1}), ["tour", "tour", "unknown", "depot", "range"]),
        (Solution(S, [0, 1, 5], {0: 1, 1: 1}), ["tour"]),
        (Solution(S, [0, 1], {0: 1}), ["unassigned"]),
        (Solution(S, [0, 1], {0: 2, 1: 1}), ["unvisited", "range"]),
        (Solution(S, [0, 1], {0: 9, 1: 1}), ["unvisited"]),
        (Solution(S, [0, 1], {0: 1, 1: 1}), ["capacity"]),
        (Solution(M, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 3}), ["drone"]),
        (Solution(M, [0, 1, 2], {0: 1, 1: 1}, {0: 0, 1: 0}), ["empty"]),
    ]
    for sol, kinds in cases:
        assert [v.kind for v in check_feasibility(sol, inst, mats)] == kinds, sol


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


def test_public_names_resolve():
    import twoecho

    missing = [name for name in twoecho.__all__ if not hasattr(twoecho, name)]
    assert missing == []
    assert len(set(twoecho.__all__)) == len(twoecho.__all__)
