import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from twoecho import localsearch
from twoecho.localsearch import DRONES_NEEDED, MULTI_TRIP_OPERATORS, SINGLE_TRIP_OPERATORS


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


# Each test below builds a state in which one operator's improving moves
# gain about 1e-6 h: more than IMPROVE_EPS (1e-9), but less than a gate with
# a 1e-5 slack would let through.


def test_relocate_drone_finds_a_small_gain_just_off_the_floor():
    # trips 1.0, 0.3 and 1e-6 h on three drones: the 1.0 h and 1e-6 h trips
    # share drone 0 and drone 2 is idle, so the wait is 1e-6 h above the
    # longest trip and moving either trip off drone 0 reaches that floor
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0)],
        [(10, 20), (10, 6), (10, 2e-5)],
        {0: 1, 1: 1, 2: 1},
        Variant.MULTI,
        {0: 0, 1: 1, 2: 0},
        endurance=2.0,
        num_drones=3,
    )
    trip = mats.trip[1]
    assert trip[0] == 1.0 and cache.wait[1] == trip[0] + trip[2]
    assert not cache._at_floor(1)
    delta = cache.relocate_drone_assignment1()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.wait[1] == 1.0 and cache._at_floor(1)
    assert coherence_errors(cache) == []


def test_swap_assignment_finds_a_small_gain():
    # node 1 flies customer 0 (0.5 h); node 2 flies customer 1 and, for its
    # wait, customer 2 (1.2 h), which node 1 cannot reach. Customer 1 lies
    # 2e-5 km closer to node 1 than customer 0 does, so swapping the two
    # cuts node 1's wait by 1e-6 h and leaves node 2's at 1.2 h.
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0), (30, 0)],
        [(10, 10), (10, 10 - 2e-5), (54, 0)],
        {0: 1, 1: 2, 2: 2},
        endurance=1.5,
        num_drones=2,
    )
    assert not mats.reach[1][2] and mats.trip[2][0] < mats.trip[2][2]
    before = evaluate(cache.export_solution(), inst, mats).objective
    delta = cache.swap_assignment1()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.assign == [2, 1, 2] and cache.wait[2] == mats.trip[2][2]
    after = evaluate(cache.export_solution(), inst, mats).objective
    assert after - before == pytest.approx(delta, abs=1e-12)


def test_pair_re_assignment_finds_a_small_gain_and_keeps_the_drones_it_costed():
    # node 1's drone 0 flies customers 0 and 1 (0.2 + 0.3 h) and drone 1
    # customer 2 (0.5 h - 1e-6 h), which node 2 cannot reach. Moving the pair
    # to node 2 (0.3 and 0.2 h from there), where customer 3 keeps drone 0
    # busy for 0.7 h, cuts node 1's wait by 1e-6 h; the pair lands on the two
    # idle drones, the first idlest in turn, and node 2's wait stays 0.7 h
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0), (20, 0)],
        [(14, 0), (16, 0), (2e-5, 0), (20, 14)],
        {0: 1, 1: 1, 2: 1, 3: 2},
        Variant.MULTI,
        {0: 0, 1: 0, 2: 1, 3: 0},
        endurance=0.9,
        num_drones=3,
    )
    assert not mats.reach[2][2]
    before = evaluate(cache.export_solution(), inst, mats).objective
    delta = cache.re_assignment2()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.tour == [0, 1, 2] and cache.assign == [2, 2, 1, 2]
    assert cache.drones[2] == [[3], [0], [1]]
    assert cache.loads[2] == [0.7, mats.trip[2][0], mats.trip[2][1]]
    after = evaluate(cache.export_solution(), inst, mats).objective
    assert after - before == pytest.approx(delta, abs=1e-12)
    assert coherence_errors(cache) == []


def test_re_assignment_finds_a_small_gain_at_the_edge_of_the_slack_gate():
    # single-trip, two drones. Node 1 flies customers 0 (0.3 h) and 1 (0.1 h);
    # node 2, 10 km along the line from customer 0 through node 1, flies
    # customer 2 (0.6 h + 1e-6 h) and has a drone idle. Customer 0 leaving
    # node 1 cuts its wait by 0.2 h; from node 2 it flies 0.8 h, so node 2
    # waits 0.2 h - 1e-6 h longer: a 1e-6 h gain at the slack gate's edge
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 10), (20, 10)],
        [(4, 10), (10, 12), (20, 22 + 2e-5)],
        {0: 1, 1: 1, 2: 2},
        endurance=1.0,
        num_drones=2,
    )
    need = -cache._leave_delta(1, 0)
    assert need - (mats.trip[2][0] - cache.slack[2]) == pytest.approx(1e-6, rel=1e-6)
    before = cache.objective()
    delta = cache.re_assignment1()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.assign == [2, 1, 2]
    assert cache.objective() - before == pytest.approx(delta, abs=1e-12)
    assert coherence_errors(cache) == []


@pytest.mark.parametrize("far", [0, 1])
def test_pair_re_assignment_finds_a_small_gain_at_the_edge_of_either_slack_gate(far):
    # three drones. Node 1's drone 0 flies customers 0 and 1 (0.5 h), its
    # drone 1 customer 2 (0.3 h), which node 2 cannot reach; node 2 flies
    # customer 3 (0.5 h + 1e-6 h). Customer `far` of the pair is 4 km from
    # node 1 and 14 km (0.7 h) from node 2; the other 6 km from node 1 and
    # 4 km from node 2. Moving the pair cuts node 1's wait by 0.2 h and adds
    # 0.2 h - 1e-6 h at node 2: a 1e-6 h gain at the edge of the gate on the
    # first customer's trip (far = 0) or the second's (far = 1)
    spots = [(6, 10), (16, 10)] if far == 0 else [(16, 10), (6, 10)]
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 10), (20, 10)],
        [*spots, (4, 10), (20, 20 + 2e-5)],
        {0: 1, 1: 1, 2: 1, 3: 2},
        Variant.MULTI,
        {0: 0, 1: 0, 2: 1, 3: 0},
        endurance=0.75,
        num_drones=3,
    )
    assert not mats.reach[2][2] and mats.trip[2][far] == 0.7
    before = cache.objective()
    delta = cache.re_assignment2()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.assign == [2, 2, 1, 2] and cache.drones[2] == [[3], [0], [1]]
    assert cache.objective() - before == pytest.approx(delta, abs=1e-12)
    assert coherence_errors(cache) == []


def test_zigzag_finds_a_small_gain_at_the_edge_of_the_slack_gate():
    # two drones. Node 1 flies customer 0 (0.5 h) on drone 0 and customer 1
    # (0.2 h) on drone 1; node 2, 4 km along the line from customer 0
    # through node 1, flies customer 2 (0.4 h + 1e-6 h) and has a drone idle.
    # Customer 1 taking over drone 0 as customer 0 leaves cuts node 1's wait
    # by 0.3 h; from node 2 customer 0 flies 0.7 h, so node 2 waits 0.3 h
    # - 1e-6 h longer: a 1e-6 h gain at the slack gate's edge
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 10), (14, 10)],
        [(0, 10), (10, 14), (14, 18 + 2e-5)],
        {0: 1, 1: 1, 2: 2},
        Variant.MULTI,
        {0: 0, 1: 1, 2: 0},
        endurance=0.75,
        num_drones=2,
    )
    assert mats.trip[2][0] == 0.7
    before = cache.objective()
    delta = cache.zigzag_assignment()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.assign == [2, 1, 2] and cache.drone_of == [1, 0, 0]
    assert cache.objective() - before == pytest.approx(delta, abs=1e-12)
    assert coherence_errors(cache) == []


def test_zigzag_finds_a_small_gain():
    # node 1 flies customer 0 (0.3 h + 1e-6 h) on drone 0 and customer 1
    # (0.3 h) on drone 1. Customer 0 moves to node 2's idle drone, as
    # customer 2 keeps node 2 waiting 0.7 h, and customer 1 takes over drone
    # 0: node 1's wait falls by 1e-6 h
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0), (20, 0)],
        [(16 + 2e-5, 0), (10, 6), (20, 14)],
        {0: 1, 1: 1, 2: 2},
        Variant.MULTI,
        {0: 0, 1: 1, 2: 0},
        endurance=0.9,
        num_drones=2,
    )
    before = evaluate(cache.export_solution(), inst, mats).objective
    delta = cache.zigzag_assignment()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.assign == [2, 1, 2] and cache.drone_of == [1, 0, 0]
    assert cache.loads[1] == [mats.trip[1][1], 0.0]
    after = evaluate(cache.export_solution(), inst, mats).objective
    assert after - before == pytest.approx(delta, abs=1e-12)
    assert coherence_errors(cache) == []


def test_greedy_repack_finds_a_small_gain():
    # trips 0.2, 0.2 h + 1e-6 h and 0.3 h on two drones, the last two sharing
    # one: shortest first puts the 0.3 h trip beside the 0.2 h one and waits
    # 1e-6 h less
    inst, mats, cache = _cache_for(
        [(0, 0), (10, 0)],
        [(14, 0), (10, 4 + 2e-5), (10, -6)],
        {0: 1, 1: 1, 2: 1},
        Variant.MULTI,
        {0: 1, 1: 0, 2: 0},
        endurance=0.9,
        num_drones=2,
    )
    trip = mats.trip[1]
    assert cache.wait[1] == trip[1] + trip[2]
    delta = cache.greedy_repack()
    assert delta == pytest.approx(-1e-6, rel=1e-6)
    assert cache.drones[1] == [[0, 2], [1]] and cache.wait[1] == trip[0] + trip[2]



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
    # every cache must equal a from-scratch recomputation after each move
    # that an operator makes and reports by returning its delta
    rng = np.random.default_rng(23)
    for variant, names in (
        (Variant.SINGLE, SINGLE_TRIP_OPERATORS),
        (Variant.MULTI, MULTI_TRIP_OPERATORS),
    ):
        for name in names:
            accepted = rounds = 0
            while accepted < 20:
                rounds += 1
                assert rounds <= 500, (variant, name, accepted)
                inst = operator_instance(name, variant, rng, rounds)
                mats = build_time_matrices(inst)
                sol = random_feasible_solution(inst, mats, variant, rng)
                if sol is None:
                    continue
                cache = DeltaCache(sol, inst, mats)
                while getattr(cache, name)() is not None:
                    assert coherence_errors(cache) == [], (variant, name)
                    accepted += 1
                assert coherence_errors(cache) == [], (variant, name)


def test_within_stop_operators_skip_only_stops_without_moves():
    # a within-stop operator skips a stop whose stamp has not changed since it
    # last found nothing there; after every move of a whole multi-trip search,
    # by any operator, each stop so marked must have no move in a fresh cache
    # (functools.wraps leaves each operator's at_stop as its __wrapped__)
    within_stop = [name for name in MULTI_TRIP_OPERATORS
                   if hasattr(getattr(DeltaCache, name), "__wrapped__")]
    assert len(within_stop) == 6
    rng = np.random.default_rng(31)
    moves = marked = 0
    for rounds in range(1, 31):
        inst = operator_instance("greedy_repack", Variant.MULTI, rng, rounds)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
        if sol is None:
            continue
        cache = DeltaCache(sol, inst, mats)

        def clean_stops():
            stops = cache.tour[1:]
            return sum(clean[i] == cache.stamp[i] for clean in cache.clean.values() for i in stops)

        def hook(name, delta):
            nonlocal moves, marked
            assert coherence_errors(cache) == [], name
            moves += 1
            marked += clean_stops()

        cache.on_move = hook
        cache.run()
        assert coherence_errors(cache) == []
        # at the fixpoint every operator has found nothing at every stop
        assert sorted(cache.clean) == sorted(within_stop)
        assert clean_stops() == len(within_stop) * (len(cache.tour) - 1)
    assert moves > 100 and marked > 50


# customer offsets from the stop: tied trips at one distance, and a 0.0 h
# trip for a customer at the stop itself
STOP_OFFSETS = [(0, 0), (1, 0), (0, 1), (-1, 0), (2, 0), (0, -2), (1, 1), (3, 0)]


@st.composite
def stops_mostly_at_their_floor(draw):
    """(u, customer offsets, drone of each customer): the longest trip's
    customer first, then each customer on the first drone from a drawn one
    on which it keeps the load within the longest trip, or else on the
    drawn drone itself."""
    u = draw(st.integers(2, 4))
    offsets = draw(st.lists(st.sampled_from(STOP_OFFSETS), min_size=1, max_size=7))
    prefs = draw(st.lists(st.integers(0, u - 1), min_size=len(offsets), max_size=len(offsets)))
    return u, offsets, prefs


@settings(max_examples=150, deadline=None)
@given(stops_mostly_at_their_floor())
def test_no_within_stop_move_at_a_stop_at_its_floor(stop):
    # a stop whose wait is its longest trip cannot wait less however its
    # customers are split over its drones
    u, offsets, prefs = stop
    inst = make_instance([(0, 0), (10, 0)], [(10 + dx, dy) for dx, dy in offsets],
                         drone_speed=60.0, num_drones=u)
    mats = build_time_matrices(inst)
    trips = mats.trip[1]
    longest = max(range(inst.m), key=trips.__getitem__)
    loads, drone_of = [0.0] * u, {longest: prefs[longest]}
    loads[prefs[longest]] = trips[longest]
    for k in range(inst.m):
        if k != longest:
            fits = [l % u for l in range(prefs[k], prefs[k] + u)
                    if loads[l % u] + trips[k] <= trips[longest]]
            drone_of[k] = fits[0] if fits else prefs[k]
            loads[drone_of[k]] += trips[k]
    sol = Solution(Variant.MULTI, [0, 1], {k: 1 for k in range(inst.m)}, drone_of)
    cache = DeltaCache(sol, inst, mats)
    at_floor = cache.wait[1] == trips[longest]
    assert cache._at_floor(1) == at_floor
    if at_floor:
        for name in MULTI_TRIP_OPERATORS:
            at_stop = getattr(getattr(DeltaCache, name), "__wrapped__", None)
            if at_stop is not None:
                assert at_stop(cache, 1) is None, name


# truck stops on a 4 km grid: trips from two stops to one customer tie often
GRID = [(4 + 4 * x, 4 + 4 * y) for x in range(3) for y in range(3)]


@st.composite
def cross_stop_states(draw):
    """(instance, matrices, solution): u of 1 to 3; two to four grid stops,
    each customer at a stop (a 0.0 h trip) or one of STOP_OFFSETS from it,
    so that waits tie too. Each customer goes to a drawn node that can serve
    it, or in single-trip mode the next one with room, which leaves many
    single-trip stops full, and in multi-trip onto a drawn drone."""
    variant = draw(st.sampled_from([Variant.SINGLE, Variant.MULTI]))
    multi = variant is Variant.MULTI
    u = draw(st.integers(1, 3))
    stops = draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=4, unique=True))
    near = draw(st.lists(st.tuples(st.sampled_from(stops), st.sampled_from(STOP_OFFSETS)),
                         min_size=2, max_size=7 if multi else min(7, u * len(stops))))
    customers = [(x + dx, y + dy) for (x, y), (dx, dy) in near]
    inst = make_instance([(0, 0), *stops], customers, drone_speed=60.0, endurance=0.3,
                         num_drones=u, d=16.0)
    mats = build_time_matrices(inst)
    assign, count = {}, [0] * inst.n
    for k in range(inst.m):
        serve = mats.v_serve[k]
        first = draw(st.integers(0, len(serve) - 1))
        room = [i for i in serve[first:] + serve[:first] if multi or count[i] < u]
        assume(room)
        assign[k] = room[0]
        count[room[0]] += 1
    order = draw(st.permutations(sorted(set(assign.values()))))
    drone_of = {k: draw(st.integers(0, u - 1)) for k in range(inst.m)} if multi else None
    return inst, mats, Solution(variant, [0, *order], assign, drone_of)


def _idlest_after(cache, j, trips):
    """The drone of node ``j`` each of ``trips`` lands on, in turn onto the
    first least-loaded one."""
    loads, lanes = list(cache.loads[j]), []
    for trip in trips:
        lanes.append(loads.index(min(loads)))
        loads[lanes[-1]] += trip
    return lanes


def _objective_after(cache, moves):
    """The objective once ``moves``, each (customer, node, drone), are made
    in the cache's state: a node left empty leaves the tour, and a node new
    to it goes in at its best position; inf when a node is over capacity."""
    inst, mats = cache.inst, cache.mats
    assign, drone_of = dict(enumerate(cache.assign)), dict(enumerate(cache.drone_of))
    for k, i, l in moves:
        assign[k], drone_of[k] = i, l
    used = set(assign.values())
    tour = [i for i in cache.tour if i == 0 or i in used]
    tours = [tour]
    for new in used.difference(tour):  # at most one
        tours = [tour[:p] + [new] + tour[p:] for p in range(1, len(tour) + 1)]
    best = float("inf")
    for tour in tours:
        sol = Solution(cache.variant, tour, assign,
                       drone_of if cache.variant is Variant.MULTI else None)
        if check_feasibility(sol, inst, mats):
            return float("inf")
        best = min(best, evaluate(sol, inst, mats).objective)
    return best


def _slack_gate_skips(cache):
    """Every target the slack gates of ``re_assignment1``, ``re_assignment2``
    and ``zigzag_assignment`` skip in the cache's state, as the move there,
    from each source whose own change gains more than ``IMPROVE_EPS``."""
    trip, reach, slack, eps = cache.trip, cache.reach, cache.slack, localsearch.IMPROVE_EPS
    skipped = []
    # each need is summed as its scan sums it: -(rem + rem_tour), or -di
    for k, i in enumerate(cache.assign):
        if len(cache.cust_at[i]) == 1:
            need = -(-cache.wait[i] + cache._remove_node_tour_delta(i))
        else:
            need = -(cache._leave_delta(i, k) + 0.0)
        if need > eps:
            skipped += [[(k, j, *_idlest_after(cache, j, [trip[j][k]]))]
                        for j in cache.mats.v_serve[k] if j != i and trip[j][k] - slack[j] >= need]
    if cache.variant is not Variant.MULTI:
        return skipped
    for i in cache.tour[1:]:
        custs = cache.cust_at[i]
        for k1, k2 in itertools.combinations(custs, 2):
            if len(custs) == 2:
                need = -(-cache.wait[i] + cache._remove_node_tour_delta(i))
            else:
                need = -cache._node_delta(i, ((cache.drone_of[k1], -trip[i][k1]),
                                              (cache.drone_of[k2], -trip[i][k2])))
            if need > eps:
                skipped += [list(zip((k1, k2), (j, j), _idlest_after(cache, j, [trip[j][k1], trip[j][k2]])))
                            for j in cache.mats.v_serve[k1] if j != i and reach[j][k2]
                            and (trip[j][k1] - slack[j] >= need or trip[j][k2] - slack[j] >= need)]
        for k, k2 in itertools.permutations(custs, 2):
            l, l2 = cache.drone_of[k], cache.drone_of[k2]
            if l == l2:
                continue
            need = -cache._node_delta(i, ((l, trip[i][k2] - trip[i][k]), (l2, -trip[i][k2])))
            if need > eps:
                skipped += [[(k2, i, l), (k, i2, *_idlest_after(cache, i2, [trip[i2][k]]))]
                            for i2 in cache.tour[1:] if i2 != i and reach[i2][k]
                            and trip[i2][k] - slack[i2] >= need]
    return skipped


@settings(max_examples=200, deadline=None)
@given(cross_stop_states())
def test_slack_gates_skip_only_targets_without_a_gain(state):
    # a target that a slack gate skips would change the objective by no less
    # than -IMPROVE_EPS, at its best tour position; and each of the three
    # scans makes the move it makes with its gates open (slack +inf but at
    # full stops), so the gates change no decision
    inst, mats, sol = state
    cache = DeltaCache(sol, inst, mats)
    assert coherence_errors(cache) == []
    before = cache.objective()
    for moves in _slack_gate_skips(cache):
        assert _objective_after(cache, moves) - before >= -localsearch.IMPROVE_EPS, moves
    for name in ("re_assignment1", "re_assignment2", "zigzag_assignment"):
        if name not in (SINGLE_TRIP_OPERATORS if sol.variant is Variant.SINGLE else MULTI_TRIP_OPERATORS):
            continue
        gated, opened = DeltaCache(sol, inst, mats), DeltaCache(sol, inst, mats)
        opened.slack = [s if s == localsearch.FULL else float("inf") for s in opened.slack]
        assert getattr(gated, name)() == getattr(opened, name)(), name
        assert (gated.tour, gated.assign, gated.drone_of) == (opened.tour, opened.assign, opened.drone_of)


@pytest.mark.parametrize("variant, u", [
    (Variant.SINGLE, 1), (Variant.SINGLE, 2), (Variant.MULTI, 1), (Variant.MULTI, 2), (Variant.MULTI, 3)])
def test_objective_equals_evaluate_in_every_state_a_search_passes(variant, u):
    # DeltaCache.objective decides whether an optimum is exported, so it must
    # equal evaluate's to the last bit; u = 1 multi-trip, where every stop's
    # customers share one drone, is run by no benchmark workload
    rng = np.random.default_rng(40 + u)
    checked = 0
    for _ in range(20):
        inst = random_instance(rng, n_lo=6, n_hi=8, m_lo=3, m_hi=8, u_lo=u, u_hi=u)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, variant, rng)
        if sol is None:
            continue
        cache = DeltaCache(sol, inst, mats)

        def hook(name, delta):
            nonlocal checked
            assert cache.objective() == evaluate(cache.export_solution(), inst, mats).objective, name
            checked += 1

        hook("start", None)
        cache.on_move = hook
        cache.run()
    assert checked > 30


def test_local_search_returns_the_incumbent_unless_it_is_strictly_beaten(monkeypatch):
    # an optimum that is not strictly below best is neither exported nor
    # evaluated: best itself comes back
    rng = np.random.default_rng(12)
    inst = random_instance(rng, n_lo=5, n_hi=5, m_lo=7, m_hi=7, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
    optimum = local_search(sol.copy(), inst, mats)
    exported = []
    export = DeltaCache.export_solution
    monkeypatch.setattr(DeltaCache, "export_solution", lambda cache: exported.append(1) or export(cache))
    for nudge, beaten in ((-math.inf, False), (0, False), (math.inf, True)):
        best = optimum.copy()
        if nudge:
            best.objective = math.nextafter(optimum.objective, nudge)
        out = local_search(sol.copy(), inst, mats, best=best)
        assert (out is not best) == beaten and len(exported) == beaten
        assert (out.tour, out.assign, out.drone_of) == (optimum.tour, optimum.assign, optimum.drone_of)


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
        operators = (cache.relocate_truck_node, cache.swap_truck_node, cache.two_opt)
        while any([op() is not None for op in operators]):
            pass
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
    before_assign = list(cache.assign)
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
    assert cache.relocate_truck_node() is None
    assert cache.swap_truck_node() is None
    assert cache.two_opt() is None


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
    delta = cache.re_assignment1()
    assert cache.tour == [0, 1]
    after = evaluate(cache.export_solution(), inst, mats).objective
    assert delta == pytest.approx(-0.9, abs=1e-9)
    assert after - before == pytest.approx(delta, abs=1e-9)


def test_reassignment_without_target_makes_no_move():
    inst = make_instance([(0, 0), (30, 0)], [(30, 2)], d=40, num_drones=1)
    mats = build_time_matrices(inst)
    sol = Solution(Variant.SINGLE, [0, 1], {0: 1})
    cache = DeltaCache(sol, inst, mats)
    assert cache.re_assignment1() is None
    assert cache.swap_assignment1() is None


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
    assert cache.greedy_repack() == pytest.approx(1.3 - 1.9)
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
    delta = cache.relocate_drone_assignment1()
    assert delta is not None and delta < -1e-9
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


def test_single_trip_search_ignores_the_drone_labels_it_is_given():
    # a single-trip Solution can carry a drone_of, as a loaded file keeps it;
    # the search gives each customer of a stop its own drone whatever the
    # labels, so stacking every customer on drone 0 changes no move
    rng = np.random.default_rng(6)
    searched = moved = 0
    for _ in range(40):
        inst = random_instance(rng, u_lo=2)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, Variant.SINGLE, rng)
        if sol is None:
            continue
        stacked = Solution(Variant.SINGLE, list(sol.tour), dict(sol.assign), dict.fromkeys(sol.assign, 0))
        logs = [], []
        ends = [
            local_search(start, inst, mats, on_move=lambda name, delta, log=log: log.append((name, delta)))
            for start, log in zip((sol, stacked), logs)
        ]
        assert logs[0] == logs[1]
        assert ends[1].canonical_json() == ends[0].canonical_json()
        assert ends[1].objective <= evaluate(sol, inst, mats).objective + 1e-9
        searched += 1
        moved += bool(logs[0])
    assert searched >= 20 and moved >= 10


def test_state_key_holds_drones_in_multi_trip_only():
    inst = make_instance([(0, 0), (10, 0)], [(10, 4), (10, 6)], num_drones=2)
    tour, assign = [0, 1], {0: 1, 1: 1}
    single = [localsearch.state_key(inst, Variant.SINGLE, tour, assign, drones)
              for drones in ({0: 0, 1: 1}, {0: 1, 1: 0}, [0, 0])]
    # the tour, then each customer's node, two bytes an index
    assert single == [array("H", [0, 1, 1, 1]).tobytes()] * 3
    multi = localsearch.state_key(inst, Variant.MULTI, tour, assign, [1, 0])
    assert multi == array("H", [0, 1, 1, 1, 1, 0]).tobytes()


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


def test_run_accepts_each_move_once():
    # run() is the one place a move is accepted: the hook fires once per
    # counted move, after the count, with the name of an operator of the variant
    rng = np.random.default_rng(29)
    total = 0
    for _ in range(30):
        inst = random_instance(rng, u_lo=1, u_hi=3, m_lo=5, m_hi=9)
        mats = build_time_matrices(inst)
        for variant, names in (
            (Variant.SINGLE, SINGLE_TRIP_OPERATORS),
            (Variant.MULTI, MULTI_TRIP_OPERATORS),
        ):
            sol = random_feasible_solution(inst, mats, variant, rng)
            if sol is None:
                continue
            cache = DeltaCache(sol, inst, mats)
            seen = []
            cache.on_move = lambda name, delta: seen.append((name, cache.moves))
            cache.run()
            assert [count for _, count in seen] == list(range(1, cache.moves + 1))
            assert {name for name, _ in seen} <= set(names)
            total += cache.moves
    assert total > 150


@pytest.mark.parametrize("u", [1, 2])
def test_operators_left_out_for_the_fleet_find_no_move(u, monkeypatch):
    # a whole multi-trip search that keeps every operator accepts no move from
    # those the fleet size leaves out, and ends where the gated search does
    left_out = [name for name, need in DRONES_NEEDED.items() if need > u]
    assert left_out
    rng = np.random.default_rng(40 + u)
    moves = 0
    for rounds in range(1, 21):
        inst = random_instance(rng, n_lo=4, n_hi=8, m_lo=6, m_hi=12, u_lo=u, u_hi=u)
        mats = build_time_matrices(inst)
        sol = random_feasible_solution(inst, mats, Variant.MULTI, rng)
        with monkeypatch.context() as mp:
            for name in left_out:
                mp.setattr(DeltaCache, name, lambda cache: pytest.fail("called a left-out operator"))
            gated = local_search(sol, inst, mats)
        names = []
        with monkeypatch.context() as mp:
            mp.setattr(localsearch, "DRONES_NEEDED", {})
            full = local_search(sol, inst, mats, on_move=lambda name, delta: names.append(name))
        assert not set(left_out) & set(names), (u, rounds)
        assert full.canonical_json() == gated.canonical_json(), (u, rounds)
        moves += len(names)
    assert moves > 100


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

