import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_tsp_hours, reference_closed_tour
from twoecho import (
    GraspConfig,
    Variant,
    build_time_matrices,
    compare_mode,
    gap_percent,
    generate_coincident,
    solve_tsp,
)
from twoecho.model import truck_times

DATA = Path(__file__).parent / "data" / "appendix_rows.csv"


def test_square_corners_perimeter():
    d = 10.0
    corners = [(0, 0), (0, d), (d, d), (d, 0)]
    res = solve_tsp(corners, speed=40.0)
    assert res.exact
    assert res.objective == pytest.approx(4 * d / 40.0)


def test_single_point():
    res = solve_tsp([(3, 4)], speed=40.0)
    assert res.objective == 0.0
    assert res.tour == (0,)


def test_exact_matches_permutation_bruteforce():
    rng = np.random.default_rng(51)
    for n in (2, 4, 6, 8):
        pts = [tuple(p) for p in rng.uniform(0, 30, size=(n, 2))]
        res = solve_tsp(pts, speed=40.0)
        assert res.exact
        assert res.objective == pytest.approx(brute_tsp_hours(pts, 40.0), abs=1e-9)
        assert sorted(res.tour) == list(range(n))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10))
def test_exact_tour_breaks_ties_like_the_reference(points):
    # a 4x4 grid with repeated points gives many equally short tours
    res = solve_tsp(points, speed=40.0)
    assert res.exact
    if len(points) == 1:
        assert (res.tour, res.objective) == ((0,), 0.0)
        return
    t = truck_times(points, 40.0)
    cost, tour = reference_closed_tour(t, (1 << (len(points) - 1)) - 1)
    assert res.tour == tuple(tour)
    assert res.objective == cost


def test_tsp_result_holds_builtin_types():
    # numpy coordinates, as the generators give, on both the exact and the heuristic branch
    rng = np.random.default_rng(53)
    for n in (1, 2, 9, 16, 20):
        res = solve_tsp(list(rng.uniform(0, 30, size=(n, 2))), speed=40.0)
        assert res.exact == (n <= 16)
        assert type(res.objective) is float
        assert all(type(i) is int for i in res.tour)
        json.dumps([res.tour, res.objective])


def test_heuristic_branch_flagged_and_sane():
    rng = np.random.default_rng(52)
    pts = [tuple(p) for p in rng.uniform(0, 30, size=(24, 2))]
    res = solve_tsp(pts, speed=40.0)
    assert not res.exact
    assert sorted(res.tour) == list(range(24))
    # nearest-neighbor plus improvement never beats the subset lower bound of 0
    assert res.objective > 0


def test_gap_examples_from_published_rows():
    assert gap_percent(7.200, 6.702) == pytest.approx(6.92, abs=0.005)
    assert gap_percent(9.400, 9.550) == pytest.approx(-1.60, abs=0.005)
    assert gap_percent(5.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        gap_percent(0.0, 1.0)


SQUARE = [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)]


@pytest.mark.parametrize("call", [
    lambda: solve_tsp(SQUARE, 0.0),
    lambda: solve_tsp(SQUARE, -40.0),
    lambda: solve_tsp(SQUARE, float("nan")),
    lambda: solve_tsp(SQUARE, float("inf")),
    lambda: solve_tsp(SQUARE[:3] + [(float("nan"), 0.0)], 40.0),
    lambda: solve_tsp(SQUARE[:3] + [(float("inf"), 0.0)], 40.0),
    lambda: solve_tsp([(float("nan"), 0.0)], 40.0),
    lambda: gap_percent(float("nan"), 1.0),
    lambda: gap_percent(-1.0, 1.0),
    lambda: gap_percent(float("inf"), 1.0),
], ids=["speed_zero", "speed_negative", "speed_nan", "speed_inf", "point_nan", "point_inf",
        "single_point_nan", "gap_nan", "gap_negative", "gap_inf"])
def test_baseline_refuses_values_it_cannot_price(call):
    # none of these has a price: a NaN cost breaks the Held–Karp read-back, a
    # negative or infinite speed gives a negative or zero tour, and a gap needs
    # a positive, finite tour to divide by
    with pytest.raises(ValueError):
        call()


def test_gap_reproduces_every_published_row():
    with open(DATA) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 80
    for row in rows:
        tsp, obj, gap = float(row["TSP"]), float(row["Obj"]), float(row["Gap"])
        assert gap_percent(tsp, obj) == pytest.approx(gap, abs=0.01), row["Data"]


def test_compare_mode_grid():
    inst = generate_coincident(d=15, n_total=6, seed=3)
    mats = build_time_matrices(inst)
    for k in range(inst.m):
        assert mats.trip[k + 1][k] == 0.0  # self-service flight is free
    cfg = GraspConfig(variant=Variant.MULTI, n_max=40, seed=1)
    rows = compare_mode(inst, speeds=[40, 50], fleet_sizes=[1, 2], cfg=cfg)
    assert len(rows) == 4
    tsp = solve_tsp(inst.truck_nodes, inst.truck_speed)
    for report in rows:
        assert report.variant is Variant.MULTI
        assert report.tsp_objective == pytest.approx(tsp.objective)
        assert report.gap == pytest.approx(
            gap_percent(tsp.objective, report.objective), abs=1e-9
        )
        assert report.objective == pytest.approx(
            report.travel_time + report.wait_time, abs=1e-9
        )
        assert report.objective > 0


def test_compare_mode_rejects_non_coincident():
    rng = np.random.default_rng(5)
    from helpers import random_instance

    inst = random_instance(rng)
    with pytest.raises(ValueError):
        compare_mode(inst, [40], [2], GraspConfig(variant=Variant.MULTI, n_max=5, seed=0))


def test_compare_mode_refuses_one_point_before_any_run(monkeypatch):
    # the truck-only tour over one point has zero length, so no gap exists
    from helpers import make_instance
    from twoecho import baseline, grasp

    calls = []
    monkeypatch.setattr(grasp, "run", lambda *args, **kwargs: calls.append("run"))
    monkeypatch.setattr(baseline, "solve_tsp", lambda *args, **kwargs: calls.append("tsp"))
    inst = make_instance([(1, 1), (1, 1), (1, 1)], [(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="one point"):
        compare_mode(inst, [40], [1], GraspConfig(variant=Variant.MULTI, n_max=5, seed=0))
    assert calls == []
