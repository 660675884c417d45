import itertools

import numpy as np
import pytest

from helpers import make_instance, operator_instance, random_feasible_solution, random_instance
from oracles import brute_pack_makespan, coherence_errors
from twoecho import (
    DeltaCache,
    Solution,
    Variant,
    build_time_matrices,
    check_feasibility,
    evaluate,
    generate_coincident,
    local_search,
    solve_exact,
)
from twoecho.localsearch import MULTI_TRIP_OPERATORS, SINGLE_TRIP_OPERATORS


def _cache_for(truck, customers, assign, variant=Variant.SINGLE, drone_of=None, **kw):
    inst = make_instance(truck, customers, **kw)
    mats = build_time_matrices(inst)
    used = sorted(set(assign.values()))
    sol = Solution(variant, [0] + used, dict(assign), drone_of)
    return inst, mats, DeltaCache(sol, inst, mats)


def test_delta_remove_customer_single():
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0)],
        [(10, 16), (10, 10)],
        {0: 1, 1: 1},
        endurance=2.0,
        num_drones=2,
    )
    # trips {0.8, 0.5}: only the longer one's leaving shortens the wait
    assert cache._leave_delta(1, 1) == pytest.approx(0.0)
    assert cache._leave_delta(1, 0) == pytest.approx(-0.3)


def test_delta_remove_with_tied_maximum():
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0)],
        [(10, 16), (10, -16)],
        {0: 1, 1: 1},
        endurance=2.0,
        num_drones=2,
    )
    # one flight per drone: the two tied trips are the two loads
    assert cache.loads[1] == [pytest.approx(0.8), pytest.approx(0.8)]
    assert cache.wait[1] == pytest.approx(0.8)
    assert cache.second[1] == pytest.approx(0.8)
    assert cache._leave_delta(1, 0) == pytest.approx(0.0)


def test_single_trip_stays_coherent_with_zero_trips():
    # every node of a coincident instance serves its own customer with a
    # 0.0 h trip, so a single-trip drone can carry that customer beside a
    # nonzero trip; the caches and waits must still match a fresh evaluation
    rng = np.random.default_rng(17)
    checked = shared = 0
    for seed in range(12):
        inst = generate_coincident(d=15.0, n_total=7, seed=seed, drone_speed=60.0, num_drones=2)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, Variant.SINGLE, rng)
        if sol is None:
            continue
        cache = DeltaCache(sol, inst, mats)

        def hook(name, delta):
            nonlocal checked, shared
            assert coherence_errors(cache) == [], name
            checked += 1
            shared += any(len(dr) > 1 for drones in cache.drones for dr in drones)

        cache.on_move = hook
        cache.run()
    assert checked > 40 and shared > 0


def test_every_operator_keeps_the_caches_coherent_after_each_move():
    # every cache must equal a from-scratch recomputation after each accepted
    # move, and each move that an operator reports must reach the hook once
    rng = np.random.default_rng(23)
    for variant, names in (
        (Variant.SINGLE, SINGLE_TRIP_OPERATORS),
        (Variant.MULTI, MULTI_TRIP_OPERATORS),
    ):
        for name in names:
            hooked = accepted = rounds = 0
            while accepted < 20:
                rounds += 1
                assert rounds <= 500, (variant, name, accepted)
                inst = operator_instance(name, variant, rng, rounds)
                mats = build_time_matrices(inst)
                sol = random_feasible_solution(inst, mats, variant, rng)
                if sol is None:
                    continue
                cache = DeltaCache(sol, inst, mats)

                def hook(op, delta):
                    nonlocal hooked
                    assert op == name
                    assert coherence_errors(cache) == [], (variant, name)
                    hooked += 1

                cache.on_move = hook
                while getattr(cache, name)():
                    accepted += 1
                assert hooked == accepted, (variant, name)


def test_truck_operators_reach_permutation_optimum():
    rng = np.random.default_rng(9)
    for trial in range(15):
        pts = rng.uniform(0, 20, size=(4, 2))
        # one pinned customer per node keeps all three nodes in the tour
        inst = make_instance(
            [tuple(p) for p in pts],
            [tuple(p) for p in pts[1:]],
            num_drones=1,
            endurance=0.5,
        )
        mats = build_time_matrices(inst)
        order = [1, 2, 3]
        rng.shuffle(order)
        sol = Solution(Variant.SINGLE, [0] + list(order), {0: 1, 1: 2, 2: 3})
        cache = DeltaCache(sol, inst, mats)
        moved = True
        while moved:
            moved = False
            moved |= cache.relocate_truck_node()
            moved |= cache.swap_truck_node()
            moved |= cache.two_opt()
        t = mats.t
        best = min(
            sum(t[a][b] for a, b in zip((0,) + perm, perm + (0,)))
            for perm in itertools.permutations((1, 2, 3))
        )
        travel = evaluate(cache.export_solution(), inst, mats).travel_time
        assert travel == pytest.approx(best, abs=1e-9)


def test_truck_operators_keep_assignments():
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n_lo=6, n_hi=6, m_lo=6, m_hi=6, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    sol = random_feasible_solution(inst, mats, Variant.SINGLE, rng)
    cache = DeltaCache(sol, inst, mats)
    before_assign = dict(cache.assign)
    before_nodes = set(cache.tour)
    cache.relocate_truck_node()
    cache.swap_truck_node()
    cache.two_opt()
    assert cache.assign == before_assign
    assert set(cache.tour) == before_nodes


def test_optimal_tour_is_fixpoint():
    inst = make_instance(
        [(0, 0), (5, 0), (10, 0), (10, 5)],
        [(5, 2), (10, 2), (10, 7)],
        num_drones=1,
    )
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0, 1, 2, 3], {0: 1, 1: 2, 2: 3})
    cache = DeltaCache(sol, inst, mats)
    assert not cache.relocate_truck_node()
    assert not cache.swap_truck_node()
    assert not cache.two_opt()


def test_reassign_sole_customer_drops_node():
    # node 2's only customer moves to node 1, whose wait has slack; node 2 leaves the tour
    inst = make_instance(
        [(0, 0), (10, 0), (10, 10)],
        [(10, -16), (10, 2)],
        endurance=1.0,
        num_drones=2,
    )
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0, 1, 2], {0: 1, 1: 2})
    before = evaluate(sol.copy(), inst, mats).objective
    cache = DeltaCache(sol, inst, mats)
    deltas = []
    cache.on_move = lambda name, delta: deltas.append((name, delta))
    assert cache.re_assignment1()
    assert cache.tour == [0, 1]
    after = evaluate(cache.export_solution(), inst, mats).objective
    assert deltas[0][1] == pytest.approx(-0.9, abs=1e-9)
    assert after - before == pytest.approx(deltas[0][1], abs=1e-9)


def test_reassignment_without_target_makes_no_move():
    inst = make_instance([(0, 0), (30, 0)], [(30, 2)], d=40, num_drones=1)
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0, 1], {0: 1})
    cache = DeltaCache(sol, inst, mats)
    assert not cache.re_assignment1()
    assert not cache.swap_assignment1()


def test_greedy_repack_follows_shortest_first_rule():
    # trips {0.5, 0.6, 0.8} on 2 drones: shortest-first packing waits 1.3,
    # while the true optimum 1.1 shows the rule is only a heuristic
    inst = make_instance(
        [(0, 0), (10, 0)],
        [(10, 10), (10, 12), (10, 16)],
        endurance=2.0,
        num_drones=2,
    )
    mats = build_time_matrices(inst)
    sol = Solution(Variant.MULTI, [0, 1], {0: 1, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 0})
    cache = DeltaCache(sol, inst, mats)
    assert cache.wait[1] == pytest.approx(1.9)
    assert cache.greedy_repack()
    assert cache.wait[1] == pytest.approx(1.3)
    assert brute_pack_makespan((0.5, 0.6, 0.8), 2) == pytest.approx(1.1)


def test_relocate_drone_moves_trip_off_busiest():
    inst = make_instance(
        [(0, 0), (10, 0)],
        [(10, 10), (10, 16), (10, 12)],
        endurance=2.0,
        num_drones=2,
    )
    mats = build_time_matrices(inst)
    # drone 0 carries 0.5 + 0.8 = 1.3, drone 1 carries 0.6
    sol = Solution(Variant.MULTI, [0, 1], {0: 1, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 1})
    cache = DeltaCache(sol, inst, mats)
    deltas = []
    cache.on_move = lambda name, d: deltas.append(d)
    assert cache.relocate_drone_assignment1()
    assert all(d < -1e-9 for d in deltas)
    assert cache.wait[1] == pytest.approx(1.1)


def test_local_search_never_worse_and_feasible():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng, u_lo=2)
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            sol = random_feasible_solution(inst, mats, variant, rng)
            if sol is None:
                continue
            out = local_search(sol, inst, mats)
            assert out.objective <= sol.objective + 1e-9
            assert check_feasibility(out, inst, mats) == []


def test_local_search_fixpoint_is_stable():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, n_lo=5, n_hi=5, m_lo=6, m_hi=6, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
    once = local_search(sol, inst, mats)
    moves = []
    twice = local_search(once, inst, mats, on_move=lambda n, d: moves.append(n))
    assert moves == []
    assert twice.canonical_json() == once.canonical_json()


def test_local_search_bounded_by_exact_optimum():
    from twoecho import compute_u_min

    rng = np.random.default_rng(13)
    for _ in range(10):
        inst = random_instance(rng, n_lo=3, n_hi=4, m_lo=3, m_hi=5, u_lo=2, u_hi=2)
        mats = build_time_matrices(inst)
        u_min = compute_u_min(inst, mats)
        if u_min > inst.num_drones:
            inst = inst.replaced(num_drones=u_min)
            mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            opt = solve_exact(inst, mats, variant).objective
            sol = random_feasible_solution(inst, mats, variant, rng)
            if sol is None:
                continue
            out = local_search(sol, inst, mats)
            assert out.objective >= opt - 1e-9


def test_deltas_match_reevaluation_and_strict_improvement():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(25):
        inst = random_instance(rng, u_lo=2, u_hi=3, m_lo=5, m_hi=9)
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            sol = random_feasible_solution(inst, mats, variant, rng)
            if sol is None:
                continue
            cache = DeltaCache(sol, inst, mats)
            state = {"prev": evaluate(cache.export_solution(), inst, mats).objective}

            def hook(name, delta):
                nonlocal checked
                assert delta < -1e-9, f"{name} accepted a non-improving move"
                cur = evaluate(cache.export_solution(), inst, mats).objective
                assert cur == pytest.approx(state["prev"] + delta, abs=1e-9), name
                state["prev"] = cur
                checked += 1

            cache.on_move = hook
            cache.run()
            assert coherence_errors(cache) == []
    assert checked > 200


def test_local_search_deterministic():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_lo=5, n_hi=5, m_lo=7, m_hi=7, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
    a = local_search(sol.copy(), inst, mats)
    b = local_search(sol.copy(), inst, mats)
    assert a.canonical_json() == b.canonical_json()


def test_operators_are_looked_up_on_the_class(monkeypatch):
    # a tracer counts operator calls by rebinding the class attributes
    for name in SINGLE_TRIP_OPERATORS + MULTI_TRIP_OPERATORS:
        assert callable(getattr(DeltaCache, name)), name
    calls = []
    two_opt = DeltaCache.two_opt

    def counting(cache):
        calls.append(cache)
        return two_opt(cache)

    monkeypatch.setattr(DeltaCache, "two_opt", counting)
    rng = np.random.default_rng(6)
    inst = random_instance(rng, n_lo=5, n_hi=5, m_lo=6, m_hi=6, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    local_search(random_feasible_solution(inst, mats, Variant.MULTI, rng), inst, mats)
    assert calls
