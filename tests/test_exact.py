import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_instance
from oracles import _held_karp_paths, brute_force_optimum, reference_closed_tour
from twoecho import (
    ExactLimits,
    GenConfig,
    GraspConfig,
    SizeLimitError,
    Variant,
    build_time_matrices,
    check_feasibility,
    compute_u_min,
    generate,
    run,
    solve_exact,
)
from twoecho import exact
from twoecho.exact import minmax_packing


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
    inst = make_instance([(0, 0), (4, 4)], [])
    mats = build_time_matrices(inst)
    for variant in (Variant.SINGLE, Variant.MULTI):
        res = solve_exact(inst, mats, variant)
        assert res.objective == 0.0
        assert res.solution.tour == [0]


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


def test_proof_reports_search_effort():
    rng = np.random.default_rng(31)
    inst, mats = _feasible_tiny(rng)
    res = solve_exact(inst, mats, Variant.MULTI)
    assert res.proof.subsets >= 1
    assert res.proof.assignments >= 1


def test_packing_cache_stays_within_its_bound():
    from twoecho.exact import PACK_CACHE_SIZE

    expected = minmax_packing((0.8, 0.6, 0.5), 2)
    for i in range(PACK_CACHE_SIZE + 50):
        minmax_packing((1.0 + i, 0.5), 2)
    info = minmax_packing.cache_info()
    assert info.maxsize == PACK_CACHE_SIZE
    assert info.currsize <= PACK_CACHE_SIZE
    assert minmax_packing((0.8, 0.6, 0.5), 2) == expected


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
def test_held_karp_table_is_the_reference_table(points):
    # repeated grid points force ties; unfilled cells must be inf in both
    t = [[(abs(a[0] - b[0]) + abs(a[1] - b[1])) / 40.0 for b in points] for a in points]
    n = len(points)
    table = exact._held_karp(t, exact._popcount_layers(n - 1))
    assert table.shape == (1 << (n - 1), n - 1)
    assert table.tolist() == _held_karp_paths(t, n)[0]


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
