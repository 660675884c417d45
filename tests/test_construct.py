import numpy as np
import pytest

from helpers import make_instance, random_instance
from oracles import assignment_cost
from twoecho import (
    ConstructionFailed,
    ConstructionStart,
    Variant,
    build_time_matrices,
    check_feasibility,
    construct_solution,
    evaluate,
    grasp,
)
from twoecho.construct import BLOCK, EPSILON, ConstructionState, RandomBlocks


def _legs(t, tour):
    closed = tour + [0]
    return sum(t[a][b] for a, b in zip(closed, closed[1:]))


def test_roulette_probabilities_inverse_cost():
    # every roulette weight is 1 / (cost + EPSILON) of its serving choice,
    # recomputed incrementally across whole constructions
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(8):
        inst = random_instance(rng, n_lo=4, n_hi=7, m_lo=4, m_hi=8, u_lo=1, u_hi=3)
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            state = ConstructionState(inst, mats, variant)
            while state.pending:
                try:
                    k_pick, i_pick = state.draw(rng)
                except ConstructionFailed:
                    break
                for k in state.pending:
                    for i in range(inst.n):
                        full = variant is Variant.SINGLE and state.count[i] >= inst.num_drones
                        if i not in mats.v_serve[k] or full:
                            assert state._weights[k][i] == 0.0
                        else:
                            expected = 1.0 / (assignment_cost(k, i, state, variant) + EPSILON)
                            assert state._weights[k][i] == pytest.approx(expected, rel=1e-12)
                        checked += 1
                state.commit(k_pick, i_pick)
    assert checked > 1000


def test_roulette_pick_single_candidate():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)])
    state = ConstructionState(inst, build_time_matrices(inst), Variant.SINGLE)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert state.draw(rng) == (0, 1)


def test_roulette_pick_empty_rejected():
    # one launch site, one drone: once it serves a customer the other has no choice left
    inst = make_instance([(0, 0), (30, 0)], [(30, 1), (30, 2)], d=40, num_drones=1)
    state = ConstructionState(inst, build_time_matrices(inst), Variant.SINGLE)
    rng = np.random.default_rng(0)
    state.commit(*state.draw(rng))
    with pytest.raises(ConstructionFailed):
        state.draw(rng)


def test_roulette_pick_uniform_within_3_sigma():
    # one customer at the depot and four launch sites at the same truck and
    # drone distance from it: each site costs the same, so each is picked
    # with probability 1/4
    inst = make_instance(
        [(0, 0), (4, 0), (0, 4), (-4, 0), (0, -4)], [(0, 0)], d=4, drone_speed=40
    )
    state = ConstructionState(inst, build_time_matrices(inst), Variant.SINGLE)
    rng = np.random.default_rng(42)
    draws = 20_000
    counts = [0] * 5
    for _ in range(draws):
        k, i = state.draw(rng)
        assert k == 0
        counts[i] += 1
    assert counts[0] == 0
    expected = draws / 4
    sigma = (draws * 0.25 * 0.75) ** 0.5
    for c in counts[1:]:
        assert abs(c - expected) <= 3 * sigma


def test_truck_insertion_cost_examples():
    inst = make_instance(
        [(0, 0), (4, 0), (2, 2), (2, 0)], [(4, 1), (2, 3), (2, 1)], truck_speed=40
    )
    state = ConstructionState(inst, build_time_matrices(inst), Variant.SINGLE)
    state.draw(np.random.default_rng(0))
    state.commit(0, 1)  # tour: depot -> (4,0) -> depot copy
    # insert (2,2) on the first arc, and on the closing arc back to the depot copy
    assert state._arc_cost[2] == pytest.approx([(4 + 4 - 4) / 40, (4 + 4 - 4) / 40])
    # a node on the Manhattan geodesic costs nothing on the first arc
    assert state._arc_cost[3][0] == pytest.approx(0.0)


def test_insertion_cost_matches_fresh_tour_evaluation():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(5):
        inst = random_instance(rng, n_lo=6, n_hi=8, m_lo=4, m_hi=8, u_lo=2, u_hi=3)
        mats = build_time_matrices(inst)
        state = ConstructionState(inst, mats, Variant.MULTI)
        while state.pending:
            state.commit(*state.draw(rng))
            tour = state.tour
            for j, costs in state._arc_cost.items():
                assert len(costs) == len(tour)
                for pos in range(1, len(tour) + 1):
                    grown = _legs(mats.t, tour[:pos] + [j] + tour[pos:]) - _legs(mats.t, tour)
                    assert costs[pos - 1] == pytest.approx(max(grown, 0.0), abs=1e-12)
                    checked += 1
    assert checked > 50


def _state_after_first_commit(variant):
    # customer 0's 0.8 h round trip makes node 1 wait 0.8 h; customers 1
    # and 2 would fly 0.6 h and 1.0 h from it
    inst = make_instance(
        [(0, 0), (10, 0)], [(10, 16), (10, 12), (10, 20)], endurance=2.0, num_drones=2
    )
    state = ConstructionState(inst, build_time_matrices(inst), variant)
    state.draw(np.random.default_rng(0))
    state.commit(0, 1)
    return state


def _assert_cost(state, variant, k, i, cost):
    assert assignment_cost(k, i, state, variant) == pytest.approx(cost)
    assert state._weights[k][i] == pytest.approx(1.0 / (cost + EPSILON))


def test_assignment_cost_visited_node():
    state = _state_after_first_commit(Variant.SINGLE)
    _assert_cost(state, Variant.SINGLE, 1, 1, 0.0)
    _assert_cost(state, Variant.SINGLE, 2, 1, 0.2)


def test_assignment_cost_unvisited_adds_insertion():
    inst = make_instance([(0, 0), (10, 0)], [(10, 12)], endurance=2.0)
    state = ConstructionState(inst, build_time_matrices(inst), Variant.SINGLE)
    state.draw(np.random.default_rng(0))
    # a 0.6 h round trip plus 0.5 h of truck detour out to (10,0) and back
    assert state._arc_cost[1][state.step_pos[1] - 1] == pytest.approx(0.5)
    _assert_cost(state, Variant.SINGLE, 0, 1, 1.1)


def test_assignment_cost_multi_uses_least_loaded():
    state = _state_after_first_commit(Variant.MULTI)
    # idle drone 1 takes the 0.6 trip: wait stays 0.8
    _assert_cost(state, Variant.MULTI, 1, 1, 0.0)
    state.commit(2, 1)
    # drone 1 now flies 1.0 h, so the 0.6 trip goes on drone 0 and makes 1.4 h
    _assert_cost(state, Variant.MULTI, 1, 1, 0.4)


def test_construct_no_customers():
    inst = make_instance([(0, 0), (3, 3)], [])
    mats = build_time_matrices(inst)
    sol = construct_solution(inst, mats, Variant.SINGLE, np.random.default_rng(0))
    assert sol.tour == [0]
    assert sol.objective == 0.0


def test_construct_forced_single_option():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)])
    mats = build_time_matrices(inst)
    sol = construct_solution(inst, mats, Variant.SINGLE, np.random.default_rng(5))
    assert sol.tour == [0, 1]
    assert sol.assign == {0: 1}
    assert sol.objective == pytest.approx(2 * (8 / 40) + 2 * (6 / 40))


def test_construct_feasible_100_seeds():
    rng = np.random.default_rng(2024)
    inst = random_instance(rng, n_lo=5, n_hi=5, m_lo=6, m_hi=6, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    for seed in range(100):
        sub = np.random.default_rng(seed)
        for variant in (Variant.SINGLE, Variant.MULTI):
            try:
                sol = construct_solution(inst, mats, variant, sub)
            except ConstructionFailed:
                continue
            assert check_feasibility(sol, inst, mats) == []


def test_multi_construction_never_fails():
    rng = np.random.default_rng(77)
    for _ in range(60):
        inst = random_instance(rng, u_lo=1, u_hi=1)
        mats = build_time_matrices(inst)
        sol = construct_solution(inst, mats, Variant.MULTI, rng)
        assert check_feasibility(sol, inst, mats) == []


def test_single_construction_failure_signalled():
    # one launch site, one drone, two customers: the second can never fit
    inst = make_instance([(0, 0), (30, 0)], [(30, 1), (30, 2)], d=40, num_drones=1)
    mats = build_time_matrices(inst)
    with pytest.raises(ConstructionFailed):
        construct_solution(inst, mats, Variant.SINGLE, np.random.default_rng(0))


def test_construct_objective_matches_reevaluation():
    rng = np.random.default_rng(15)
    for _ in range(20):
        inst = random_instance(rng, u_lo=2)
        mats = build_time_matrices(inst)
        try:
            sol = construct_solution(inst, mats, Variant.MULTI, rng)
        except ConstructionFailed:
            continue
        fresh = evaluate(sol.copy(), inst, mats).objective
        assert sol.objective == pytest.approx(fresh, abs=1e-9)


def _outcome(inst, mats, variant, rng, start=None):
    try:
        return construct_solution(inst, mats, variant, rng, start=start).canonical_json()
    except ConstructionFailed:
        return "failed"


# (name, instance): a tight single-trip instance, where customer 0 fits only
# at node 2, so a construction fails whenever customer 1 takes node 2 first;
# no customer at all; and generated instances with one to three drones
SHARED_START_CASES = [
    ("tight", make_instance([(0, 0), (20, 0), (30, 0)], [(36, 0), (25, 0)], d=40)),
    ("no customers", make_instance([(0, 0), (3, 3)], [])),
] + [
    (f"generated {seed}", random_instance(np.random.default_rng(seed), n_hi=8, m_hi=10))
    for seed in range(4)
]


@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
@pytest.mark.parametrize("name, inst", SHARED_START_CASES, ids=[c[0] for c in SHARED_START_CASES])
def test_shared_start_gives_what_fresh_constructions_give(name, inst, variant):
    # constructions from one start against constructions that each build
    # their own, on twin generators: same solution or failure per attempt,
    # same draws, and the start left as it was built
    mats = build_time_matrices(inst)
    start = ConstructionStart(mats)
    shared, fresh = np.random.default_rng(7), np.random.default_rng(7)
    outcomes = []
    for _ in range(40):
        outcomes.append(_outcome(inst, mats, variant, shared, start))
        assert outcomes[-1] == _outcome(inst, mats, variant, fresh)
    assert shared.random() == fresh.random()
    assert vars(start) == vars(ConstructionStart(mats))
    if name == "tight" and variant is Variant.SINGLE:
        assert "failed" in outcomes and len(set(outcomes)) > 1
    if name == "no customers":
        assert start.weights == start.cums == start.sites == []


@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
def test_grasp_stream_builds_one_start_and_keeps_it(monkeypatch, variant):
    inst = SHARED_START_CASES[0][1]
    mats = build_time_matrices(inst)
    starts = []

    def recording(*args, start=None, **kwargs):
        starts.append(start)
        return construct_solution(*args, start=start, **kwargs)

    monkeypatch.setattr(grasp, "construct_solution", recording)
    grasp.run(inst, grasp.GraspConfig(variant=variant, n_max=20, seed=3), mats=mats)
    assert len(starts) == 20 and all(s is starts[0] for s in starts)
    assert vars(starts[0]) == vars(ConstructionStart(mats))


def test_random_blocks_serve_the_generator_numbers_in_order():
    # takes at and across block edges, against per-take draws of a twin; the
    # last three carry part of a block over into the next fetch
    blocks, twin = RandomBlocks(np.random.default_rng(11)), np.random.default_rng(11)
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 5, BLOCK - 1, 7):
        assert blocks.take(n) == twin.random(n).tolist()
