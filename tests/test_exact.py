import numpy as np
import pytest

from helpers import make_instance, random_instance
from oracles import brute_force_optimum
from twoecho import (
    ExactLimits,
    GraspConfig,
    SizeLimitError,
    Variant,
    build_time_matrices,
    check_feasibility,
    compute_u_min,
    run,
    solve_exact,
)
from twoecho.exact import minmax_packing


def test_minmax_packing_examples():
    span, lanes = minmax_packing((0.8, 0.6, 0.5), 2)
    assert span == pytest.approx(1.1)
    assert len(lanes) == 3
    assert minmax_packing((), 3) == (0.0, ())
    span, _ = minmax_packing((0.9, 0.3, 0.3, 0.3), 3)
    assert span == pytest.approx(0.9)


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
    assert res.proof.complete
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
