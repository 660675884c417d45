import gc
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_instance
from twoecho import (
    DeltaCache,
    GenConfig,
    GraspConfig,
    NoSolutionError,
    Variant,
    build_time_matrices,
    check_feasibility,
    compute_u_min,
    construct_solution,
    evaluate,
    generate,
    generate_coincident,
    grasp,
    local_search,
    localsearch,
    run,
)
from twoecho.construct import ConstructionFailed
from twoecho.grasp import worker_seed
from twoecho.localsearch import state_key


def test_single_iteration_equals_construct_plus_local_search():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    seed = 424242
    best, report = run(inst, GraspConfig(variant=Variant.MULTI, n_max=1, seed=seed))
    manual = local_search(
        construct_solution(inst, mats, Variant.MULTI, np.random.default_rng(seed)),
        inst,
        mats,
    )
    assert best.canonical_json() == manual.canonical_json()
    assert report.iterations == 1


def test_deterministic_given_seed():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    cfg = GraspConfig(variant=Variant.SINGLE, n_max=50, seed=7)
    a, _ = run(inst, cfg)
    b, _ = run(inst, cfg)
    assert a.canonical_json() == b.canonical_json()


def test_best_monotone_in_iterations():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    objs = []
    for n_max in (1, 5, 20, 60):
        _, report = run(inst, GraspConfig(variant=Variant.MULTI, n_max=n_max, seed=3))
        objs.append(report.objective)
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_reported_objective_matches_reevaluation():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    mats = build_time_matrices(inst)
    best, report = run(inst, GraspConfig(variant=Variant.MULTI, n_max=30, seed=5))
    assert report.objective == pytest.approx(
        evaluate(best.copy(), inst, mats).objective, abs=1e-12
    )
    assert check_feasibility(best, inst, mats) == []
    assert report.visited == len(best.tour)


def test_failed_iterations_count_and_raise():
    # one launch site, one drone, two customers: construction always dead-ends
    inst = make_instance([(0, 0), (30, 0)], [(30, 1), (30, 2)], d=40, num_drones=1)
    with pytest.raises(NoSolutionError) as err:
        run(inst, GraspConfig(variant=Variant.SINGLE, n_max=25, seed=1))
    assert err.value.failures == 25


def test_failures_still_count_toward_iterations():
    # a tight fleet makes some construction orders dead-end but not all
    from twoecho import GenConfig, generate

    inst = generate(GenConfig(d=20, n_truck=5, m_customers=8, seed=7)).replaced(
        num_drones=2
    )
    _, report = run(inst, GraspConfig(variant=Variant.SINGLE, n_max=120, seed=2))
    assert report.iterations == 120
    assert report.construction_failures > 0


def test_time_limit_stops_early():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_lo=6, n_hi=6, m_lo=8, m_hi=8, u_lo=2, u_hi=2)
    _, report = run(
        inst,
        GraspConfig(variant=Variant.MULTI, n_max=10**6, seed=1, time_limit=0.3),
    )
    assert 0 < report.iterations < 10**6


@pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
def test_time_limit_must_be_positive(limit):
    # zero or negative would run no iteration and NaN would never stop a run
    with pytest.raises(ValueError, match="time_limit must be positive"):
        GraspConfig(variant=Variant.MULTI, time_limit=limit)


def test_parallel_merge_is_min_of_worker_runs():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, u_lo=2, u_hi=2)
    cfg = GraspConfig(variant=Variant.MULTI, n_max=30, seed=11, threads=2)
    best, report = run(inst, cfg)
    again, _ = run(inst, cfg)
    assert best.canonical_json() == again.canonical_json()
    singles = []
    for w, share in enumerate((15, 15)):
        _, rep = run(
            inst,
            GraspConfig(variant=Variant.MULTI, n_max=share, seed=worker_seed(11, w)),
        )
        singles.append(rep.objective)
    assert report.objective == pytest.approx(min(singles), abs=1e-12)
    assert report.objective <= max(singles) + 1e-12
    assert report.iterations == 30


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: run the jobs in this process and
    return the list of pool sizes asked for."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(grasp, "ProcessPoolExecutor", InlineExecutor)
    return sizes


def test_pool_has_no_more_workers_than_jobs_or_cores(monkeypatch, inline_pool):
    # a fork pool starts every worker at its first submit
    sizes = inline_pool
    inst = random_instance(np.random.default_rng(5), u_lo=2, u_hi=2)
    cfg = GraspConfig(variant=Variant.MULTI, n_max=10, seed=11, threads=1000)
    for cores, workers in ((4, 4), (64, 10), (None, 1)):
        monkeypatch.setattr(grasp.os, "cpu_count", lambda: cores)
        _, report = run(inst, cfg)
        assert sizes[-1] == workers
        assert report.iterations == 10
    # the streams still follow cfg.threads: ten one-iteration workers
    singles = [
        run(inst, GraspConfig(variant=Variant.MULTI, n_max=1, seed=worker_seed(11, w)))[1].objective
        for w in range(10)
    ]
    assert report.objective == min(singles)


@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
def test_pooled_streams_run_on_the_callers_matrices(monkeypatch, inline_pool, variant):
    inst = random_instance(np.random.default_rng(5), u_lo=8, u_hi=8)
    mats = build_time_matrices(inst)
    cfg = GraspConfig(variant=variant, n_max=12, seed=3, threads=3)
    expected, _ = run(inst, cfg, mats=mats)

    def refuse(_inst):
        raise AssertionError("a pooled run given matrices rebuilt them")

    monkeypatch.setattr(grasp, "build_time_matrices", refuse)
    best, _ = run(inst, cfg, mats=mats)
    assert best.canonical_json() == expected.canonical_json()


def _tiny_at_u_min(seed, n_truck=4, m_customers=6):
    inst = generate(GenConfig(d=20, n_truck=n_truck, m_customers=m_customers, seed=seed))
    return inst.replaced(num_drones=compute_u_min(inst, build_time_matrices(inst)))


@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
def test_local_search_runs_once_per_distinct_start(monkeypatch, variant):
    # a start already in the stream's memo returns None before a DeltaCache is built
    inst = _tiny_at_u_min(1)
    starts, built = [], []

    def key(sol):
        return state_key(inst, variant, sol.tour, sol.assign, sol.drone_of)

    def looking(sol, *args, seen=None, **kwargs):
        starts.append((key(sol), key(sol) in seen))
        return local_search(sol, *args, seen=seen, **kwargs)

    class Counting(DeltaCache):
        def __init__(self, sol, *args, **kwargs):
            built.append(key(sol))
            super().__init__(sol, *args, **kwargs)

    monkeypatch.setattr(grasp, "local_search", looking)
    monkeypatch.setattr(localsearch, "DeltaCache", Counting)
    _, report = run(inst, GraspConfig(variant=variant, n_max=300, seed=4))
    assert len(starts) == report.iterations - report.construction_failures
    assert built == [k for k, visited in starts if not visited]
    # every start that repeats an earlier one is in the memo, and stops
    earlier = set()
    for k, visited in starts:
        assert visited or k not in earlier
        earlier.add(k)
    assert 0 < len(starts) - len(built) <= report.retraced_searches


def test_retraced_searches_sum_over_workers():
    inst = _tiny_at_u_min(1)
    _, report = run(inst, GraspConfig(variant=Variant.MULTI, n_max=200, seed=6, threads=2))
    per_worker = [
        run(inst, GraspConfig(variant=Variant.MULTI, n_max=100, seed=worker_seed(6, w)))[1]
        for w in range(2)
    ]
    assert report.retraced_searches == sum(r.retraced_searches for r in per_worker) > 0


def _search_every_start(inst, mats, variant, n_max, seed):
    """The multi-start loop without the visited-state memo: every search runs in full."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_max):
        try:
            sol = construct_solution(inst, mats, variant, rng, evaluated=False)
        except ConstructionFailed:
            continue
        sol = local_search(sol, inst, mats)
        if best is None or sol.objective < best.objective:
            best = sol
    return best


@settings(max_examples=30, deadline=None)
@given(
    inst_seed=st.integers(0, 10**6),
    n_truck=st.integers(3, 6),
    m_customers=st.integers(3, 7),
    extra_drones=st.integers(0, 1),
    multi=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_skipping_repeated_starts_changes_no_result(
    inst_seed, n_truck, m_customers, extra_drones, multi, seed
):
    inst = _tiny_at_u_min(inst_seed, n_truck, m_customers)
    inst = inst.replaced(num_drones=inst.num_drones + extra_drones)
    mats = build_time_matrices(inst)
    variant = Variant.MULTI if multi else Variant.SINGLE
    expected = _search_every_start(inst, mats, variant, 60, seed)
    if expected is None:
        with pytest.raises(NoSolutionError):
            run(inst, GraspConfig(variant=variant, n_max=60, seed=seed), mats=mats)
        return
    best, report = run(inst, GraspConfig(variant=variant, n_max=60, seed=seed), mats=mats)
    assert best.canonical_json() == expected.canonical_json()
    assert report.objective == expected.objective


def _assert_stopping_changes_no_result(inst, variant):
    mats = build_time_matrices(inst)
    expected = _search_every_start(inst, mats, variant, 300, 4)
    best, report = run(inst, GraspConfig(variant=variant, n_max=300, seed=4), mats=mats)
    assert report.retraced_searches > 0
    assert best.canonical_json() == expected.canonical_json()
    assert report.objective == expected.objective


@pytest.mark.parametrize("extra_drones", [0, 1])
@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
def test_stopping_retraced_searches_changes_no_result(variant, extra_drones):
    inst = _tiny_at_u_min(1)
    _assert_stopping_changes_no_result(inst.replaced(num_drones=inst.num_drones + extra_drones), variant)


def test_stopping_retraced_searches_with_one_drone_changes_no_result():
    # with u = 1 the multi-trip search leaves out every operator that needs two drones
    _assert_stopping_changes_no_result(_tiny_at_u_min(1).replaced(num_drones=1), Variant.MULTI)


class _StateLog(list):
    """A ``seen`` that holds nothing: the search runs in full and logs the
    key of every state it looks up, its start and each later round start."""

    def __contains__(self, key):
        return False

    add = list.append


@settings(max_examples=25, deadline=None)
@given(
    inst_seed=st.integers(0, 10**6),
    n_truck=st.integers(3, 6),
    m_customers=st.integers(3, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_searches_sharing_a_round_start_end_alike(inst_seed, n_truck, m_customers, seed):
    # the memo relies on this: a round's moves depend only on the state at
    # its start, with a single-trip state's drones left out, so searches
    # that pass one state end alike
    base = _tiny_at_u_min(inst_seed, n_truck, m_customers)
    mats = build_time_matrices(base)
    for extra_drones in (0, 1):
        inst = base.replaced(num_drones=base.num_drones + extra_drones)
        for variant in (Variant.SINGLE, Variant.MULTI):
            rng = np.random.default_rng(seed)
            ends = {}
            for _ in range(30):
                try:
                    sol = construct_solution(inst, mats, variant, rng, evaluated=False)
                except ConstructionFailed:
                    continue
                states = _StateLog()
                end = local_search(sol, inst, mats, seen=states).canonical_json()
                for key in states:
                    assert ends.setdefault(key, end) == end


def _memo_bytes(monkeypatch, variant, rounds):
    """Run a 300-iteration stream and return the keys of its one memo, the
    index count of each key and the bytes grasp.py and localsearch.py still
    hold for the keys; with ``rounds`` False, searches look up no round
    start, so the memo holds start keys only."""
    inst = generate_coincident(d=30.0, n_total=12, seed=3).replaced(drone_speed=60.0, num_drones=3)
    mats = build_time_matrices(inst)
    columns = 2 if variant is Variant.MULTI else 1
    indices, kept = {}, []

    def sizing(inst, variant, tour, assign, drone_of):
        key = state_key(inst, variant, tour, assign, drone_of)
        indices[key] = len(tour) + columns * inst.m
        return key

    def keeping(sol, *args, seen=None, **kwargs):
        kept.append(seen)
        return local_search(sol, *args, seen=seen, **kwargs)

    run_rounds = localsearch.DeltaCache.run
    monkeypatch.setattr(localsearch, "state_key", sizing)
    monkeypatch.setattr(grasp, "local_search", keeping)
    if not rounds:
        monkeypatch.setattr(localsearch.DeltaCache, "run", lambda cache, seen=None: run_rounds(cache))
    tracemalloc.start()
    try:
        grasp._run_stream(inst, mats, variant, 300, 0, None)
        gc.collect()  # empties the free lists, which still hold the searches' lists
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    seen = kept[0]
    assert all(memo is seen for memo in kept)
    assert len(seen) == len(indices)
    # what grasp.py and localsearch.py still hold: the set and its keys; the
    # set's table, up to 128 bytes a key just after it grows, is left out
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, grasp.__file__), tracemalloc.Filter(True, localsearch.__file__)]
    )
    keys = sum(stat.size for stat in held.statistics("filename")) - sys.getsizeof(seen)
    return seen, indices, keys


def test_start_keys_take_two_bytes_per_index(monkeypatch):
    # on coincident instances starts never repeat, so the memo keeps every
    # start's key: each must cost about two bytes per tour node and customer,
    # and in multi-trip two more per customer's drone
    for variant in (Variant.SINGLE, Variant.MULTI):
        seen, indices, keys = _memo_bytes(monkeypatch, variant, rounds=False)
        assert len(seen) == 300
        assert keys / len(seen) <= 48 + 2 * sum(indices.values()) / len(seen)


def test_round_keys_take_two_bytes_per_index(monkeypatch):
    # the memo also keeps the key of every later round start, in the same
    # set and at the same cost as a start key
    for variant in (Variant.SINGLE, Variant.MULTI):
        seen, indices, keys = _memo_bytes(monkeypatch, variant, rounds=True)
        assert len(seen) > 300
        assert keys / len(seen) <= 48 + 2 * sum(indices.values()) / len(seen)
