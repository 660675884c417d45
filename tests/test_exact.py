import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_instance
from make_optima import OPTIMA, SEEDS, c8_instance
from oracles import _held_karp_paths, brute_force_optimum, reference_closed_tour
from twoecho import (
    ExactLimits,
    GenConfig,
    GraspConfig,
    SizeLimitError,
    Solution,
    Variant,
    build_time_matrices,
    check_feasibility,
    compute_u_min,
    evaluate,
    generate,
    run,
    solve_exact,
)
from twoecho import exact
from twoecho.exact import SearchProof, minmax_packing


def test_minmax_packing_examples():
    span, lanes = minmax_packing((0.8, 0.6, 0.5), 2)
    assert span == pytest.approx(1.1)
    assert len(lanes) == 3
    assert minmax_packing((), 3) == (0.0, ())
    span, _ = minmax_packing((0.9, 0.3, 0.3, 0.3), 3)
    assert span == pytest.approx(0.9)


@given(
    drones=st.integers(1, 5),
    trips=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 2.0)), max_size=5),
)
def test_packing_at_most_one_trip_per_drone_waits_for_the_longest(drones, trips):
    # with at most one trip per drone, each trip gets a drone of its own and
    # the stop waits for the longest; a search that stops within 1e-12 h of
    # its bound could share a drone (0.2 + 0.1 on one of 3 drones for trips
    # 0.3, 0.2, 0.1, a wait of 0.30000000000000004)
    trips = tuple(sorted(trips[:drones], reverse=True))
    longest = trips[0] if trips else 0.0
    span, lanes = minmax_packing(trips, drones)
    assert span == longest
    assert sorted(lanes) == list(range(len(trips)))


def test_exact_multi_trip_gives_each_flight_its_own_drone_when_the_fleet_allows():
    # four customers served from one stop by four drones: one flight each
    inst = generate(GenConfig(d=20, n_truck=4, m_customers=4, seed=1)).replaced(num_drones=4)
    mats = build_time_matrices(inst)
    sol = solve_exact(inst, mats, Variant.MULTI).solution
    assert len(sol.tour) == 2
    assert sorted(sol.drone_of.values()) == [0, 1, 2, 3]
    assert check_feasibility(sol, inst, mats) == []


def test_no_customers():
    # with no customer the one subset is the empty one: the depot alone
    drone_of = {Variant.SINGLE: "null", Variant.MULTI: "{}"}
    for truck in ([(0, 0)], [(0, 0), (4, 4)], [(0, 0), (4, 4), (1, 3)]):
        inst = make_instance(truck, [])
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            res = solve_exact(inst, mats, variant)
            assert res.objective == 0.0
            assert res.solution.tour == [0]
            assert res.proof == SearchProof(subsets=1, assignments=1)
            assert res.solution.canonical_json() == (
                '{"arrivals":{"0":0.0},"assign":{},"drone_of":%s,"objective":0.0,'
                '"tour":[0],"variant":"%s","waits":{"0":0.0}}' % (drone_of[variant], variant.value)
            ), (len(truck), variant)


def test_single_customer_closed_form():
    inst = make_instance([(0, 0), (8, 0), (2, 2)], [(8, 6)], num_drones=1)
    mats = build_time_matrices(inst)
    expected = min(
        2 * mats.t[0][i] + mats.trip[i][0]
        for i in (1, 2)
        if mats.reach[i][0]
    )
    for variant in (Variant.SINGLE, Variant.MULTI):
        res = solve_exact(inst, mats, variant)
        assert res.objective == pytest.approx(expected, abs=1e-12)
        assert check_feasibility(res.solution, inst, mats) == []


def test_a_subset_that_beats_the_incumbent_by_1e_7_h_is_searched():
    # stop 1 sits 1e-6 km beside the customer and stop 2 on it: the subset
    # {1} comes first and costs 1e-7 h more than {2}, so a bound or prune
    # that cuts within 1e-7 h of the incumbent keeps the worse tour
    inst = make_instance([(0, 0), (10, 1e-6), (10, 0)], [(10, 0)])
    mats = build_time_matrices(inst)
    for variant in (Variant.SINGLE, Variant.MULTI):
        res = solve_exact(inst, mats, variant)
        assert (res.solution.tour, res.objective) == ([0, 2], 0.5), variant
        assert res.proof == SearchProof(subsets=2, assignments=2)


def test_caps_refused_with_size_report():
    inst = make_instance([(0, 0)] + [(i, 0) for i in range(1, 12)], [], num_drones=1)
    mats = build_time_matrices(inst)
    with pytest.raises(SizeLimitError) as err:
        solve_exact(inst, mats, Variant.SINGLE, ExactLimits(max_truck_nodes=8))
    assert "n=12" in str(err.value)


def _feasible_tiny(rng):
    inst = random_instance(rng, n_lo=3, n_hi=5, m_lo=3, m_hi=6, u_lo=1, u_hi=3)
    mats = build_time_matrices(inst)
    u_min = compute_u_min(inst, mats)
    if inst.num_drones < u_min:
        inst = inst.replaced(num_drones=u_min)
        mats = build_time_matrices(inst)
    return inst, mats


def test_matches_bruteforce_enumeration():
    rng = np.random.default_rng(17)
    for trial in range(8):
        inst, mats = _feasible_tiny(rng)
        for variant in (Variant.SINGLE, Variant.MULTI):
            res = solve_exact(inst, mats, variant)
            oracle = brute_force_optimum(inst, mats, variant)
            assert res.objective == pytest.approx(oracle, abs=1e-9), (
                inst.name,
                variant,
                trial,
            )
            assert check_feasibility(res.solution, inst, mats) == []


def test_grasp_never_beats_exact():
    rng = np.random.default_rng(23)
    for _ in range(6):
        inst, mats = _feasible_tiny(rng)
        for variant in (Variant.SINGLE, Variant.MULTI):
            opt = solve_exact(inst, mats, variant).objective
            _, report = run(inst, GraspConfig(variant=variant, n_max=150, seed=3))
            assert report.objective >= opt - 1e-9


def test_monotone_in_fleet_and_speed_and_variant():
    rng = np.random.default_rng(29)
    for _ in range(6):
        inst, mats = _feasible_tiny(rng)
        for variant in (Variant.SINGLE, Variant.MULTI):
            base = solve_exact(inst, mats, variant).objective
            bigger = inst.replaced(num_drones=inst.num_drones + 1)
            more = solve_exact(bigger, build_time_matrices(bigger), variant).objective
            assert more <= base + 1e-9
            faster = inst.replaced(drone_speed=80.0)
            quick = solve_exact(faster, build_time_matrices(faster), variant).objective
            assert quick <= base + 1e-9
        single = solve_exact(inst, mats, Variant.SINGLE).objective
        multi = solve_exact(inst, mats, Variant.MULTI).objective
        assert multi <= single + 1e-9


def test_stored_criterion_8_optima_hold_and_grasp_never_beats_them():
    # written by tests/make_optima.py: the benchmark's c8 instances at seed 0
    cases = json.loads(OPTIMA.read_text(encoding="utf-8"))
    assert sorted((c["seed"], c["variant"]) for c in cases) == [
        (seed, v.value) for seed in SEEDS for v in (Variant.MULTI, Variant.SINGLE)
    ]
    for seed in SEEDS:
        inst, mats = c8_instance(seed)
        for case in (c for c in cases if c["seed"] == seed):
            assert case["num_drones"] == inst.num_drones
            sol = Solution.from_json_dict(case["solution"])
            assert check_feasibility(sol, inst, mats) == []
            assert evaluate(sol, inst, mats).objective == pytest.approx(case["objective"], abs=1e-9)
            _, report = run(inst, GraspConfig(variant=sol.variant, n_max=20, seed=1), mats)
            assert report.objective >= case["objective"] - 1e-9, (seed, case["variant"])


def test_proof_reports_search_effort():
    rng = np.random.default_rng(31)
    inst, mats = _feasible_tiny(rng)
    res = solve_exact(inst, mats, Variant.MULTI)
    assert res.proof.subsets >= 1
    assert res.proof.assignments >= 1


def test_each_solve_packs_a_stop_once_and_keeps_nothing_for_the_next(monkeypatch):
    # the search packs the same stop's trips many times over (167 packings of
    # 28 distinct keys here); a solve computes each once, and a second solve
    # computes them all again, as nothing is kept between solves
    keys = []

    def counting(trips, drones):
        keys.append((trips, drones))
        return minmax_packing(trips, drones)

    monkeypatch.setattr(exact, "minmax_packing", counting)
    inst = generate(GenConfig(d=20, n_truck=8, m_customers=8, seed=1)).replaced(num_drones=2)
    mats = build_time_matrices(inst)
    first = solve_exact(inst, mats, Variant.MULTI)
    calls = len(keys)
    assert calls and len(set(keys)) == calls
    second = solve_exact(inst, mats, Variant.MULTI)
    assert keys[calls:] == keys[:calls]
    assert second.objective == first.objective


def test_exact_tour_is_the_reference_closed_tour_over_its_stops():
    for seed in range(12):
        inst = generate(GenConfig(d=20, n_truck=3 + seed % 6, m_customers=3 + seed % 5, seed=seed))
        mats = build_time_matrices(inst)
        inst = inst.replaced(num_drones=compute_u_min(inst, mats))
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            res = solve_exact(inst, mats, variant)
            mask = sum(1 << (i - 1) for i in res.solution.tour[1:])
            cost, tour = reference_closed_tour(mats.t, mask)
            assert res.solution.tour == tour, (seed, variant)
            assert res.objective == pytest.approx(cost + sum(res.solution.waits.values()), abs=1e-12)


_GRID_POINTS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)
_FLOAT_POINTS = st.lists(
    st.tuples(st.floats(0, 30, allow_nan=False), st.floats(0, 30, allow_nan=False)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_GRID_POINTS, _FLOAT_POINTS))
# solve_tsp fills whole tables up to 16 points, past the cap of 12 above:
# 14 points on a 3 x 3 grid, five of them (the depot's too) repeated
@example([(x, y) for x in range(3) for y in range(3)] + [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)])
def test_held_karp_table_is_the_reference_table(points):
    # repeated grid points force ties; unfilled cells must be inf in both
    t = [[(abs(a[0] - b[0]) + abs(a[1] - b[1])) / 40.0 for b in points] for a in points]
    n = len(points)
    table = exact._held_karp(t, exact._popcount_layers(n - 1))
    assert table.shape == (n - 1, 1 << (n - 1))
    assert table.T.tolist() == _held_karp_paths(t, n)[0]


def test_layer_cap_gives_the_uncapped_solution(monkeypatch):
    # the same 12 instances as the reference-tour test above
    capped = 0
    for seed in range(12):
        inst = generate(GenConfig(d=20, n_truck=3 + seed % 6, m_customers=3 + seed % 5, seed=seed))
        mats = build_time_matrices(inst)
        inst = inst.replaced(num_drones=compute_u_min(inst, mats))
        mats = build_time_matrices(inst)
        capped += inst.m < inst.n - 1
        for variant in (Variant.SINGLE, Variant.MULTI):
            res = solve_exact(inst, mats, variant)
            nodes = list(res.solution.tour) + list(res.solution.assign.values())
            assert all(type(i) is int for i in nodes), (seed, variant)
            with monkeypatch.context() as patch:
                fill = exact._held_karp
                patch.setattr(
                    exact, "_held_karp", lambda t, layers: fill(t, exact._popcount_layers(len(t) - 1))
                )
                full = solve_exact(inst, mats, variant)
            assert res.solution.canonical_json() == full.solution.canonical_json(), (seed, variant)
            assert res.proof == full.proof
    assert capped >= 3
