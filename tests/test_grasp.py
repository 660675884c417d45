import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_instance
from twoecho import (
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
    run,
)
from twoecho.construct import ConstructionFailed
from twoecho.grasp import worker_seed


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


def test_pool_has_no_more_workers_than_jobs_or_cores(monkeypatch):
    # a fork pool starts every worker at its first submit; this stand-in
    # records the pool size and runs the jobs in this process
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(grasp, "ProcessPoolExecutor", InlineExecutor)
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


def _tiny_at_u_min(seed, n_truck=4, m_customers=6):
    inst = generate(GenConfig(d=20, n_truck=n_truck, m_customers=m_customers, seed=seed))
    return inst.replaced(num_drones=compute_u_min(inst, build_time_matrices(inst)))


def _start_key(sol):
    drones = None if sol.drone_of is None else tuple(sorted(sol.drone_of.items()))
    return tuple(sol.tour), tuple(sorted(sol.assign.items())), drones


@pytest.mark.parametrize("variant", [Variant.SINGLE, Variant.MULTI])
def test_local_search_runs_once_per_distinct_start(monkeypatch, variant):
    searched = []

    def counting(sol, *args, **kwargs):
        searched.append(_start_key(sol))
        return local_search(sol, *args, **kwargs)

    monkeypatch.setattr(grasp, "local_search", counting)
    inst = _tiny_at_u_min(1)
    mats = build_time_matrices(inst)
    _, report = run(inst, GraspConfig(variant=variant, n_max=300, seed=4), mats=mats)
    assert report.repeated_starts > 0
    assert len(searched) + report.repeated_starts == report.iterations - report.construction_failures

    # replay the run's constructions: every distinct start is searched once, in order
    rng = np.random.default_rng(4)
    distinct = {}
    for _ in range(300):
        try:
            sol = construct_solution(inst, mats, variant, rng, evaluated=False)
        except ConstructionFailed:
            continue
        distinct.setdefault(_start_key(sol), None)
    assert searched == list(distinct)


def test_repeated_starts_sum_over_workers():
    inst = _tiny_at_u_min(1)
    _, report = run(inst, GraspConfig(variant=Variant.MULTI, n_max=200, seed=6, threads=2))
    per_worker = [
        run(inst, GraspConfig(variant=Variant.MULTI, n_max=100, seed=worker_seed(6, w)))[1]
        for w in range(2)
    ]
    assert report.repeated_starts == sum(r.repeated_starts for r in per_worker) > 0


def _search_every_start(inst, mats, variant, n_max, seed):
    """The multi-start loop without the repeated-start skip."""
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


def test_start_keys_take_two_bytes_per_index(monkeypatch):
    # on coincident instances starts never repeat, so a long run keeps every
    # key: each must cost about two bytes per tour node, assignment and drone
    inst = generate_coincident(d=30.0, n_total=12, seed=3).replaced(drone_speed=60.0, num_drones=3)
    mats = build_time_matrices(inst)
    keys, indices, snapshots = 300, [], []

    def recording(sol, *args, **kwargs):
        indices.append(len(sol.tour) + 2 * inst.m)
        if len(indices) == keys:
            snapshots.append(tracemalloc.take_snapshot())
        return sol

    monkeypatch.setattr(grasp, "local_search", recording)
    tracemalloc.start()
    try:
        _, _, failures, repeated = grasp._run_stream(inst, mats, Variant.MULTI, keys, 0, None)
    finally:
        tracemalloc.stop()
    assert (failures, repeated, len(indices)) == (0, 0, keys)
    # what grasp.py still holds: the keys, the set's table, the generator
    held = snapshots[0].filter_traces([tracemalloc.Filter(True, grasp.__file__)])
    per_key = sum(stat.size for stat in held.statistics("filename")) / keys
    assert per_key <= 96 + 2 * sum(indices) / keys
