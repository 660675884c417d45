import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_tsp_hours
from twoecho import (
    GraspConfig,
    Variant,
    build_time_matrices,
    compare_mode,
    gap_percent,
    generate_coincident,
    solve_tsp,
)

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
