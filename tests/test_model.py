import json
import math

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
    generate_coincident,
)
from twoecho.model import TIME_EPS, instance_from_json_dict, instance_to_json_dict, truck_times


def test_truck_time_manhattan():
    inst = make_instance([(0, 0), (3, 4)], [], truck_speed=40)
    mats = build_time_matrices(inst)
    assert mats.t[0][1] == pytest.approx((3 + 4) / 40)  # 0.175 h
    assert mats.t[0][1] == mats.t[1][0]


def test_truck_times_equal_the_python_manhattan_loop():
    # the one truck-time matrix, for GRASP and the TSP baseline alike, holds
    # the same Python floats as summing the two coordinate gaps and dividing
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40):
        pts = list(rng.uniform(0, 30, size=(n, 2)))  # numpy scalars, as the generators give
        for speed in (40.0, 37, 55.5):
            ref = [[(abs(a[0] - b[0]) + abs(a[1] - b[1])) / speed for b in pts] for a in pts]
            got = truck_times(pts, speed)
            assert got == ref
            assert all(type(x) is float for row in got for x in row)


def test_drone_time_euclidean():
    # node 1 shares the depot's point, so the customer has a launch site
    inst = make_instance([(0, 0), (0, 0)], [(3, 4)], drone_speed=50)
    mats = build_time_matrices(inst)
    assert mats.trip[0][0] == mats.trip[1][0] == pytest.approx(2 * 5 / 50)  # 0.1 h each way


def _lowest_endurance_reaching(trip):
    """The smallest float endurance e with ``trip <= e + TIME_EPS``."""
    e = trip - TIME_EPS
    while trip <= math.nextafter(e, 0.0) + TIME_EPS:
        e = math.nextafter(e, 0.0)
    while trip > e + TIME_EPS:
        e = math.nextafter(e, math.inf)
    return e


def test_instance_is_valid_exactly_when_every_customer_has_a_launch_site():
    # endurance at the deciding round trip, at the lowest endurance that still
    # reaches it, and one ulp below each; the nearest node of all (often the
    # depot, which never launches) gives candidates that a rule letting the
    # depot launch would wrongly accept
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(150):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        truck = [tuple(p) for p in rng.uniform(0.0, 20.0, size=(n, 2))]
        customers = [tuple(p) for p in rng.uniform(0.0, 20.0, size=(m, 2))]
        customers[0] = (truck[0][0] + rng.uniform(-2, 2), truck[0][1] + rng.uniform(-2, 2))
        roomy = make_instance(truck, customers, endurance=1e6, d=25.0)
        trip = build_time_matrices(roomy).trip
        from_stops = [min(trip[i][k] for i in range(1, n)) for k in range(m)]
        from_any = [min(trip[i][k] for i in range(n)) for k in range(m)]
        for tight in (max(from_stops), max(from_any)):
            for e in (tight, _lowest_endurance_reaching(tight)):
                for endurance in (e, math.nextafter(e, 0.0)):
                    if endurance <= 0.0:
                        continue
                    valid = all(best <= endurance + TIME_EPS for best in from_stops)
                    outcomes.add(valid)
                    if valid:
                        mats = build_time_matrices(roomy.replaced(endurance=endurance))
                        assert all(mats.v_serve) and not any(mats.reach[0])
                    else:
                        with pytest.raises(InfeasibleInstanceError, match="no launch-capable"):
                            roomy.replaced(endurance=endurance)
    assert outcomes == {True, False}


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


def test_reach_sets_are_the_nonzeros_of_reach():
    rng = np.random.default_rng(12)
    insts = [random_instance(rng, n_lo=2, n_hi=12, m_lo=1, m_hi=15, d=d)
             for d in (5.0, 20.0, 60.0) * 8]
    insts += [generate_coincident(d=20.0, n_total=n, seed=s, drone_speed=60.0)
              for n in (4, 16) for s in (0, 1)]
    for inst in insts:
        mats = build_time_matrices(inst)
        reach = np.asarray(mats.reach, dtype=bool)
        assert reach.shape == (inst.n, inst.m)
        w_sets = tuple(tuple(np.flatnonzero(row).tolist()) for row in reach)
        v_serve = tuple(tuple(np.flatnonzero(col).tolist()) for col in reach.T)
        assert mats.w_sets == w_sets and mats.v_serve == v_serve
        assert all(type(x) is int for sets in (mats.w_sets, mats.v_serve) for s in sets for x in s)


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


def test_drone_choices_for_unknown_customers_are_reported_in_either_variant():
    inst = make_instance([(0, 0), (8, 0)], [(8, 4), (8, 6)], num_drones=2)
    mats = build_time_matrices(inst)
    for variant in Variant:
        sol = Solution(variant, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 1, 99: 0, -1: 1})
        violations = check_feasibility(sol, inst, mats)
        assert [(v.kind, str(v)) for v in violations] == [
            ("unknown", "drone choice references unknown customer 99"),
            ("unknown", "drone choice references unknown customer -1"),
        ], variant


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


@pytest.mark.parametrize("field, value", [
    ("tour", [0, 2.5, 1]),
    ("tour", [0, True, 1]),
    ("tour", [0, "2", 1]),
    ("assign", {"0": 2, "1": 1.5}),
    ("drone_of", {"0": 1, "1": 0.25}),
    # keys int() would fold onto another index: "01", "+1" and " 1" onto 1, "1_0" onto 10
    ("assign", {"0": 2, "01": 1}),
    ("drone_of", {"0": 1, "+1": 0}),
    ("waits", {"0": 0.0, " 1": 0.5}),
    ("arrivals", {"0": 0.0, "1_0": 0.5}),
    ("assign", {"0": 2, "-0": 1}),
])
def test_solution_loader_refuses_non_integral_indices(field, value):
    data = Solution(Variant.MULTI, [0, 2, 1], {0: 2, 1: 1}, {0: 1, 1: 0}).to_json_dict()
    data[field] = value
    with pytest.raises(ValueError, match=f"{field}: expected an integer"):
        Solution.from_json_dict(data)


def test_loaders_take_integral_floats():
    data = Solution(Variant.MULTI, [0, 2, 1], {0: 2, 1: 1}, {0: 1, 1: 0}).to_json_dict()
    data["tour"] = [0.0, 2.0, 1.0]
    assert Solution.from_json_dict(data).tour == [0, 2, 1]
    inst = instance_to_json_dict(make_instance([(0, 0), (1, 2)], [(1, 3)], num_drones=2))
    assert instance_from_json_dict({**inst, "num_drones": 2.0}).num_drones == 2


@pytest.mark.parametrize("value", [2.9, True, "2", math.inf])
def test_instance_loader_refuses_a_non_integral_fleet(value):
    data = instance_to_json_dict(make_instance([(0, 0), (1, 2)], [(1, 3)], num_drones=2))
    data["num_drones"] = value
    with pytest.raises(ValueError, match="num_drones: expected an integer"):
        instance_from_json_dict(data)


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
