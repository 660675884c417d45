import csv
import json
import math

import pytest

from helpers import make_instance, run_python
from twoecho import (
    ExactLimits,
    GenConfig,
    GraspConfig,
    InfeasibleInstanceError,
    Variant,
    generate_coincident,
    grasp,
    load_instance,
    load_solution,
    save_instance,
)
from twoecho.baseline import check_coincident
from twoecho.cli import build_parser, main
from twoecho.exact import check_big_m


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_solve_verify_pipeline(tmp_path):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    rep_path = tmp_path / "r.json"
    assert run_cli("gen", "--d", 20, "--n", 5, "--m", 8, "--seed", 7, "--out", inst_path) == 0
    inst = load_instance(inst_path)
    assert inst.name == "20-5-8"
    assert (
        run_cli(
            "solve", inst_path, "--variant", "m", "--iters", 120, "--seed", 1,
            "--out", sol_path, "--report", rep_path,
        )
        == 0
    )
    sol = load_solution(sol_path)
    report = json.loads(rep_path.read_text())
    assert report["iterations"] == 120
    assert report["variant"] == "multi"
    assert report["objective"] == pytest.approx(sol.objective)
    assert run_cli("verify", inst_path, sol_path) == 0


def test_solve_deterministic_bytes(tmp_path):
    inst_path = tmp_path / "i.json"
    run_cli("gen", "--d", 20, "--n", 4, "--m", 6, "--seed", 3, "--num-drones", 3, "--out", inst_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("solve", inst_path, "--variant", "s", "--iters", 60, "--seed", 5, "--out", a)
    run_cli("solve", inst_path, "--variant", "s", "--iters", 60, "--seed", 5, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_verify_tampered_solution_fails(tmp_path):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 6, "--seed", 2, "--out", inst_path)
    run_cli("solve", inst_path, "--variant", "m", "--iters", 40, "--seed", 1, "--out", sol_path)
    data = json.loads(sol_path.read_text())
    data["assign"].pop(next(iter(data["assign"])))
    sol_path.write_text(json.dumps(data))
    assert run_cli("verify", inst_path, sol_path) == 1


def test_verify_objective_mismatch_fails(tmp_path):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 6, "--seed", 2, "--out", inst_path)
    run_cli("solve", inst_path, "--variant", "m", "--iters", 40, "--seed", 1, "--out", sol_path)
    data = json.loads(sol_path.read_text())
    data["objective"] += 0.5
    sol_path.write_text(json.dumps(data))
    assert run_cli("verify", inst_path, sol_path) == 1


def test_verify_prints_the_objective_mismatch(tmp_path, capsys):
    from twoecho import Solution, Variant, build_time_matrices, evaluate, save_instance, save_solution
    from helpers import make_instance

    inst = make_instance([(0, 0), (8, 0), (0, 20)], [(8, 4), (8, 6)], num_drones=1)
    sol = Solution(Variant.MULTI, [0, 1], {0: 1, 1: 1}, {0: 0, 1: 0})
    evaluate(sol, inst, build_time_matrices(inst))
    sol.objective += 0.5
    inst_path, sol_path = tmp_path / "i.json", tmp_path / "s.json"
    save_instance(inst, inst_path)
    save_solution(sol, sol_path)
    capsys.readouterr()
    assert run_cli("verify", inst_path, sol_path) == 1
    out = capsys.readouterr().out
    assert out == "violation: stored objective 1.4 differs from recomputed 0.8999999999999999\n"


def test_exact_subcommand(tmp_path):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 4, "--m", 5, "--seed", 11, "--num-drones", 3, "--out", inst_path)
    assert run_cli("exact", inst_path, "--variant", "s", "--out", sol_path) == 0
    assert run_cli("verify", inst_path, sol_path) == 0


def test_export_and_import_milp(tmp_path):
    inst_path = tmp_path / "i.json"
    model = tmp_path / "model.lp"
    values = tmp_path / "values.sol"
    out = tmp_path / "sol.json"
    run_cli("gen", "--d", 20, "--n", 3, "--m", 1, "--seed", 13, "--out", inst_path)
    assert run_cli("export-milp", inst_path, "--model", "s", "--big-m", 10, "--out", model) == 0
    text = model.read_text()
    assert text.startswith("\\")
    assert "Minimize" in text and "Binaries" in text and text.rstrip().endswith("End")
    assert run_cli("export-milp", inst_path, "--model", "umin", "--out", model) == 0
    inst = load_instance(inst_path)
    from twoecho import build_time_matrices

    mats = build_time_matrices(inst)
    serving = mats.v_serve[0][0]
    values.write_text(
        f"x_0_{serving} 1\nx_{serving}_{inst.n} 1\ny_{serving} 1\nz_{serving}_0 1\n"
    )
    assert run_cli("import-milp-solution", inst_path, values, "--out", out) == 0
    assert run_cli("verify", inst_path, out) == 0


def _lp_big_m(text):
    """The big-M of an exported completion-time model: the bound of ``time_0_1: ... >= -M``."""
    row = next(line for line in text.splitlines() if line.startswith(" time_0_1: "))
    return -float(row.split(" >= ")[1])


def test_export_milp_takes_big_m_from_the_heuristic(tmp_path, capsys):
    from twoecho import build_time_matrices, solve_exact

    inst_path, model = tmp_path / "i.json", tmp_path / "model.lp"
    run_cli("gen", "--d", 20, "--n", 4, "--m", 5, "--seed", 11, "--num-drones", 3, "--out", inst_path)
    inst = load_instance(inst_path)
    for variant in Variant:
        capsys.readouterr()
        assert run_cli("export-milp", inst_path, "--model", variant.value[0], "--out", model) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("big-M from heuristic bound: ") and first.endswith(" h")
        big_m = float(first.split(": ")[1][:-2])
        # a heuristic objective bounds the optimum from above
        assert big_m >= solve_exact(inst, build_time_matrices(inst), variant).objective - 1e-6
        assert _lp_big_m(model.read_text()) == pytest.approx(big_m, abs=1e-6)


def test_export_milp_without_customers_writes_a_positive_big_m(tmp_path, capsys):
    # every arrival of the 0 h optimum is 0, so any positive bound is valid
    inst_path, model = tmp_path / "e.json", tmp_path / "e.lp"
    run_cli("gen", "--d", 10, "--n", 3, "--m", 0, "--seed", 1, "--out", inst_path)
    for name in ("s", "m"):
        capsys.readouterr()
        assert run_cli("export-milp", inst_path, "--model", name, "--out", model) == 0
        out = capsys.readouterr().out
        big_m = float(out.splitlines()[0].split(": ")[1][:-2])
        assert big_m > 0
        text = model.read_text()
        assert "Minimize" in text and text.rstrip().endswith("End")
        assert _lp_big_m(text) == pytest.approx(big_m, abs=1e-6)


def test_malformed_value_file_is_one_error_line(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    values = tmp_path / "values.sol"
    run_cli("gen", "--d", 20, "--n", 3, "--m", 1, "--seed", 13, "--out", inst_path)
    for line in ("x_a_1 1", "z_1_x 1", "x_0_1 nan", "x_0_1 inf"):
        values.write_text(f"{line}\n")
        capsys.readouterr()
        assert run_cli("import-milp-solution", inst_path, values) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: variable ") and err.count("\n") == 1, line


def test_compare_tsp_csv(tmp_path):
    inst_path = tmp_path / "c.json"
    out = tmp_path / "rows.csv"
    run_cli("gen", "--d", 15, "--n", 6, "--seed", 5, "--coincident", "--out", inst_path)
    assert (
        run_cli(
            "compare-tsp", inst_path, "--speeds", "40,60", "--fleet", "1,2",
            "--iters", 30, "--seed", 2, "--out", out,
        )
        == 0
    )
    rows = list(csv.reader(out.open()))
    assert rows[0][:11] == ["Data", "vt", "vd", "u", "TSP", "Vt", "Obj", "Td", "Tt", "Gap", "Time"]
    assert len(rows) == 1 + 4


def test_bench_row_count(tmp_path):
    for seed in (1, 2):
        run_cli("gen", "--d", 20, "--n", 4, "--m", 5, "--seed", seed, "--out", tmp_path / f"i{seed}.json")
    out = tmp_path / "bench.csv"
    assert (
        run_cli(
            "bench", tmp_path, "--iters", 20, "--speeds", "40,80",
            "--u-offsets", "0,1", "--skip-exact", "--out", out,
        )
        == 0
    )
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 2 * 2 * 2


def test_bench_fills_the_exact_columns_up_to_the_exact_solver_limits(tmp_path):
    # 5 and 9 truck nodes: the exact solver takes at most 8
    for n in (5, 9):
        run_cli("gen", "--d", 20, "--n", n, "--m", 5, "--seed", 3, "--out", tmp_path / f"i{n}.json")
    out = tmp_path / "bench.csv"
    assert (
        run_cli("bench", tmp_path, "--iters", 30, "--speeds", "40,80", "--u-offsets", "0", "--out", out)
        == 0
    )
    rows = list(csv.DictReader(out.open()))
    assert sorted(row["Data"] for row in rows) == ["20-5-5"] * 2 + ["20-9-5"] * 2
    for row in rows:
        for v in ("s", "m"):
            exact_cells = [row[f"exact_{v}_{col}"] for col in ("Time", "Obj_h", "Obj_min")]
            if row["Data"] == "20-9-5":
                assert exact_cells == ["", "", ""], row
            else:
                assert all(exact_cells), row
                assert float(row[f"exact_{v}_Obj_h"]) <= float(row[f"grasp_{v}_Obj_h"]) + 1e-9, row


def test_usage_errors_exit_2():
    assert run_cli("no-such-command") == 2
    assert run_cli("gen", "--d", 20) == 2  # missing required flags


def test_missing_file_is_runtime_error(tmp_path):
    assert run_cli("solve", tmp_path / "nope.json") == 1


def _assert_usage_error(capsys, *args):
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture
def tiny_instance(tmp_path):
    path = tmp_path / "i.json"
    run_cli("gen", "--d", 20, "--n", 4, "--m", 5, "--seed", 3, "--num-drones", 2, "--out", path)
    return path


def test_solve_zero_iterations_is_usage_error(tiny_instance, capsys):
    _assert_usage_error(capsys, "solve", tiny_instance, "--iters", 0)


def test_solve_zero_threads_is_usage_error(tiny_instance, capsys):
    _assert_usage_error(capsys, "solve", tiny_instance, "--threads", 0)


def test_solve_zero_time_limit_is_usage_error(tiny_instance, capsys):
    _assert_usage_error(capsys, "solve", tiny_instance, "--time-limit", 0)


def test_non_integer_thread_variable_is_usage_error(tiny_instance, capsys, monkeypatch):
    monkeypatch.setenv("TWOECHO_THREADS", "abc")
    _assert_usage_error(capsys, "solve", tiny_instance, "--iters", 5)


def test_compare_tsp_non_coincident_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    _assert_usage_error(capsys, "compare-tsp", tiny_instance, "--iters", 5, "--out", out)
    assert not out.exists()


def test_compare_tsp_writes_the_truck_speed_and_solves_the_tsp_once(tmp_path, monkeypatch):
    from twoecho import baseline

    solved = []

    def counting(*args, **kwargs):
        solved.append(args)
        return solve_tsp(*args, **kwargs)

    solve_tsp = baseline.solve_tsp
    monkeypatch.setattr(baseline, "solve_tsp", counting)
    inst_path = tmp_path / "c.json"
    out = tmp_path / "rows.csv"
    run_cli(
        "gen", "--d", 15, "--n", 5, "--seed", 4, "--coincident", "--truck-speed", 30,
        "--out", inst_path,
    )
    assert (
        run_cli(
            "compare-tsp", inst_path, "--speeds", "40", "--fleet", "1,2",
            "--iters", 10, "--out", out,
        )
        == 0
    )
    rows = list(csv.reader(out.open()))
    assert [row[1] for row in rows[1:]] == ["30", "30"]
    assert len(solved) == 1


def test_solve_reports_retraced_searches(tiny_instance, tmp_path, capsys):
    rep_path = tmp_path / "r.json"
    assert run_cli("solve", tiny_instance, "--iters", 200, "--report", rep_path) == 0
    report = json.loads(rep_path.read_text())
    assert "repeated_starts" not in report
    retraced = report["retraced_searches"]
    assert retraced > 0
    out = capsys.readouterr().out
    assert f"iters=200, {retraced} retraced searches" in out


def test_bench_sizes_the_fleet_at_40_kmh(tmp_path):
    # at the instance's 60 km/h the fleet could be one drone smaller than at
    # 40 km/h, too small for single-trip construction at 40 km/h
    from twoecho import build_time_matrices, compute_u_min

    inst_path = tmp_path / "i.json"
    out = tmp_path / "bench.csv"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 10, "--drone-speed", 60, "--seed", 10, "--out", inst_path)
    inst = load_instance(inst_path)
    at_40 = inst.replaced(drone_speed=40.0)
    u_min = compute_u_min(at_40, build_time_matrices(at_40))
    assert u_min > compute_u_min(inst, build_time_matrices(inst))
    assert (
        run_cli(
            "bench", inst_path, "--speeds", "40", "--u-offsets", "0", "--iters", 200,
            "--skip-exact", "--out", out,
        )
        == 0
    )
    rows = list(csv.DictReader(out.open()))
    assert [int(row["u"]) for row in rows] == [u_min]


def test_bench_names_the_file_and_the_reference_speed_when_fleet_sizing_fails(tmp_path, capsys):
    # the stop reaches the customer at the file's 80 km/h (a 0.375 h round
    # trip) but not at the 40 km/h reference speed (0.75 h), so the file is
    # valid and only fleet sizing refuses it
    path = tmp_path / "far.json"
    save_instance(make_instance([(0, 0), (1, 1)], [(16, 1)], drone_speed=80.0, endurance=0.5), path)
    out = tmp_path / "bench.csv"
    err = _assert_file_error(capsys, path, "bench", path, "--iters", 5, "--skip-exact", "--out", out)
    assert "reference drone speed of 40 km/h" in err
    assert not out.exists()


def test_negative_generator_seed_is_named(tmp_path, capsys):
    message = "seed must not be negative, got -1"
    with pytest.raises(ValueError, match=message):
        GenConfig(d=10, n_truck=3, m_customers=2, seed=-1)
    with pytest.raises(ValueError, match=message):
        generate_coincident(d=10, n_total=3, seed=-1)
    out = tmp_path / "i.json"
    for shape in (("--m", 2), ("--coincident",)):
        capsys.readouterr()
        assert run_cli("gen", "--d", 10, "--n", 3, *shape, "--seed", -1, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_empty_grids_are_usage_errors(tiny_instance, tmp_path, capsys):
    coincident = tmp_path / "c.json"
    run_cli("gen", "--d", 15, "--n", 6, "--seed", 5, "--coincident", "--out", coincident)
    out = tmp_path / "grid.csv"
    for command, option, value in (
        ("compare-tsp", "--speeds", ""),
        ("compare-tsp", "--fleet", ""),
        ("bench", "--speeds", ","),
        ("bench", "--u-offsets", ""),
    ):
        path = coincident if command == "compare-tsp" else tiny_instance
        capsys.readouterr()
        assert run_cli(command, path, option, value, "--iters", 5, "--out", out) == 2
        assert f"argument {option}: expected one or more" in capsys.readouterr().err
        assert not out.exists()


def test_out_of_range_values_are_usage_errors(tiny_instance, tmp_path, capsys):
    coincident = tmp_path / "c.json"
    run_cli("gen", "--d", 15, "--n", 6, "--seed", 5, "--coincident", "--out", coincident)
    out = tmp_path / "out"
    _assert_usage_error(capsys, "compare-tsp", coincident, "--fleet", 0, "--iters", 5, "--out", out)
    _assert_usage_error(capsys, "compare-tsp", coincident, "--speeds", 30, "--iters", 5, "--out", out)
    _assert_usage_error(capsys, "compare-tsp", coincident, "--speeds", "40,inf", "--iters", 5, "--out", out)
    one_point = tmp_path / "one_point.json"  # coincident, but its TSP tour has zero length
    save_instance(make_instance([(1, 1), (1, 1)], [(1, 1)]), one_point)
    _assert_usage_error(capsys, "compare-tsp", one_point, "--iters", 5, "--speeds", 40, "--fleet", 1, "--out", out)
    _assert_usage_error(
        capsys, "bench", tiny_instance, "--u-offsets", -5, "--iters", 5, "--skip-exact", "--out", out
    )
    _assert_usage_error(capsys, "bench", tiny_instance, "--speeds", 30, "--iters", 5, "--out", out)
    _assert_usage_error(capsys, "bench", tiny_instance, "--speeds", "inf", "--iters", 5, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 10, "--n", 5, "--coincident", "--truck-speed", 50, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 0, "--n", 5, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 10, "--n", 0, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 10, "--n", 1, "--m", 3, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 10, "--n", 3, "--m", -1, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", "inf", "--n", 3, "--m", 2, "--out", out)
    _assert_usage_error(capsys, "gen", "--d", 10, "--n", 3, "--m", 2, "--seed", -1, "--out", out)
    gen = ("gen", "--d", 20, "--n", 4, "--m", 3, "--out", out)
    _assert_usage_error(capsys, *gen, "--truck-speed", "inf", "--drone-speed", "inf")
    _assert_usage_error(capsys, *gen, "--drone-speed", "inf")
    _assert_usage_error(capsys, *gen, "--endurance", "inf")
    _assert_usage_error(capsys, "solve", tiny_instance, "--iters", 5, "--seed", -1, "--out", out)
    _assert_usage_error(
        capsys, "compare-tsp", coincident, "--iters", 5, "--seed", -1, "--out", out
    )
    _assert_usage_error(
        capsys, "bench", tiny_instance, "--iters", 5, "--seed", -1, "--skip-exact", "--out", out
    )
    assert not out.exists()


def test_trace_reaches_stderr_from_workers(tmp_path):
    inst_path = tmp_path / "i.json"
    run_cli("gen", "--d", 20, "--n", 6, "--m", 10, "--num-drones", 2, "--seed", 7, "--out", inst_path)
    done = run_python(
        "-c", "import sys; from twoecho.cli import main; sys.exit(main())",
        "solve", inst_path, "--iters", 200, "--trace", "--threads", 2,
    )
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("move ") for line in done.stderr.splitlines())


def _assert_file_error(capsys, path, *args):
    capsys.readouterr()
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


def test_instance_file_that_is_not_json_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    _assert_file_error(capsys, path, "solve", path, "--iters", 5)


def test_instance_file_missing_a_field_is_one_error_line(tiny_instance, tmp_path, capsys):
    data = json.loads(tiny_instance.read_text())
    del data["d"]
    path = tmp_path / "no_d.json"
    path.write_text(json.dumps(data))
    assert "missing field 'd'" in _assert_file_error(capsys, path, "solve", path, "--iters", 5)


def test_solution_file_that_is_not_an_object_is_one_error_line(tiny_instance, tmp_path, capsys):
    path = tmp_path / "sol.json"
    path.write_text("[1, 2]")
    _assert_file_error(capsys, path, "verify", tiny_instance, path)


def test_verify_refuses_fractional_indices(tmp_path, capsys):
    # truncated by int(), the stop + 0.9 and its customers at stop + 0.5 would pass verify
    inst_path, sol_path = tmp_path / "i.json", tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 6, "--seed", 2, "--out", inst_path)
    run_cli("solve", inst_path, "--variant", "m", "--iters", 40, "--seed", 1, "--out", sol_path)
    assert run_cli("verify", inst_path, sol_path) == 0
    data = json.loads(sol_path.read_text())
    stop = data["tour"][1]
    data["tour"][1] = stop + 0.9
    data["assign"] = {k: i + 0.5 if i == stop else i for k, i in data["assign"].items()}
    sol_path.write_text(json.dumps(data))
    err = _assert_file_error(capsys, sol_path, "verify", inst_path, sol_path)
    assert f"tour: expected an integer, got {stop + 0.9}" in err


def test_verify_refuses_aliased_customer_keys(tmp_path, capsys):
    # read with int(), "00" would assign customer 0 twice, once to a node
    # the tour never visits, and verify would pass
    inst_path, sol_path = tmp_path / "i.json", tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 6, "--seed", 2, "--out", inst_path)
    run_cli("solve", inst_path, "--variant", "m", "--iters", 40, "--seed", 1, "--out", sol_path)
    data = json.loads(sol_path.read_text())
    unvisited = min(set(range(1, 5)) - set(data["tour"]))
    data["assign"] = {"00": unvisited, **data["assign"]}
    sol_path.write_text(json.dumps(data))
    err = _assert_file_error(capsys, sol_path, "verify", inst_path, sol_path)
    assert "assign: expected an integer key, got '00'" in err


def test_verify_refuses_a_drone_choice_for_an_unknown_customer(tmp_path, capsys):
    inst_path, sol_path = tmp_path / "i.json", tmp_path / "s.json"
    run_cli("gen", "--d", 20, "--n", 5, "--m", 6, "--seed", 2, "--num-drones", 2, "--out", inst_path)
    run_cli("solve", inst_path, "--variant", "m", "--iters", 40, "--seed", 1, "--out", sol_path)
    data = json.loads(sol_path.read_text())
    data["drone_of"]["99"] = 0
    sol_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", inst_path, sol_path) == 1
    out = capsys.readouterr().out
    assert out == "violation: drone choice references unknown customer 99\n"


def test_instance_file_with_a_fractional_fleet_is_one_error_line(tiny_instance, tmp_path, capsys):
    data = json.loads(tiny_instance.read_text())
    data["num_drones"] = 2.9
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(data))
    err = _assert_file_error(capsys, path, "solve", path, "--iters", 5)
    assert "num_drones: expected an integer, got 2.9" in err


def test_instance_file_with_an_integer_too_large_for_a_float_is_one_error_line(tiny_instance, tmp_path, capsys):
    data = json.loads(tiny_instance.read_text())
    data["d"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert "too large to convert to float" in _assert_file_error(capsys, path, "solve", path, "--iters", 5)


def test_non_positive_big_m_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "model.lp"
    _assert_usage_error(capsys, "export-milp", tiny_instance, "--big-m", -1, "--out", out)
    assert not out.exists()


def test_non_finite_big_m_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "model.lp"
    for value in ("inf", "nan"):
        _assert_usage_error(capsys, "export-milp", tiny_instance, "--big-m", value, "--out", out)
    assert not out.exists()


def test_literal_eq13_outside_single_trip_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "model.lp"
    for model in ("m", "umin"):
        _assert_usage_error(capsys, "export-milp", tiny_instance, "--model", model,
                            "--big-m", 5, "--literal-eq13", "--out", out)
        _assert_usage_error(capsys, "export-milp", tiny_instance, "--model", model,
                            "--literal-eq13", "--out", out)
    assert not out.exists()


def test_big_m_with_the_fleet_model_is_usage_error(tiny_instance, tmp_path, capsys):
    # the minimum-fleet model has no big-M, so a bound it would ignore is refused
    out = tmp_path / "model.lp"
    for value in (5, -5):
        _assert_usage_error(capsys, "export-milp", tiny_instance, "--model", "umin",
                            "--big-m", value, "--out", out)
    assert not out.exists()


def test_exact_caps_below_one_are_usage_errors(tiny_instance, capsys):
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-nodes", -3)
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-customers", 0)
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-drones", 0)


def test_exact_caps_default_to_the_library_limits():
    args = build_parser().parse_args(["exact", "instance.json"])
    assert ExactLimits(args.max_nodes, args.max_customers, args.max_drones) == ExactLimits()


def _one_point_coincident():
    return make_instance([(1, 1), (1, 1)], [(1, 1)])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: GraspConfig(variant=Variant.MULTI, seed=-1), ValueError),
        (lambda: GraspConfig(variant=Variant.MULTI, n_max=0), ValueError),
        (lambda: GraspConfig(variant=Variant.MULTI, threads=0), ValueError),
        (lambda: GraspConfig(variant=Variant.MULTI, time_limit=float("nan")), ValueError),
        (lambda: ExactLimits(0, 0, 0), ValueError),
        (lambda: ExactLimits(max_drones=0), ValueError),
        (lambda: GenConfig(d=math.inf, n_truck=3, m_customers=2), ValueError),
        (lambda: GenConfig(d=20, n_truck=3, m_customers=2, endurance=math.nan), InfeasibleInstanceError),
        (lambda: GenConfig(d=20, n_truck=3, m_customers=2, truck_speed=50), InfeasibleInstanceError),
        (lambda: generate_coincident(d=0, n_total=5, seed=0), ValueError),
        (lambda: generate_coincident(d=math.inf, n_total=5, seed=0), ValueError),
        (lambda: generate_coincident(d=-5, n_total=5, seed=0), ValueError),
        (lambda: check_big_m(math.inf), ValueError),
        (lambda: check_coincident(_one_point_coincident()), ValueError),
    ],
)
def test_library_refuses_bad_values_at_construction(build, error):
    # the CLI reports exactly these refusals as usage errors, so each must
    # come from the object that takes the value, as the documented type
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error


def test_value_error_inside_a_solve_is_not_a_usage_error(tiny_instance, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("raised by the solver")

    monkeypatch.setattr(grasp, "run", failing)
    with pytest.raises(ValueError, match="raised by the solver"):
        run_cli("solve", tiny_instance, "--iters", 5)


def test_invalid_instance_file_stays_a_file_error(tiny_instance, tmp_path, capsys):
    data = json.loads(tiny_instance.read_text())
    data["drone_speed"] = data["truck_speed"] / 2
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    _assert_file_error(capsys, path, "solve", path, "--iters", 5)
    _assert_file_error(capsys, path, "compare-tsp", path, "--iters", 5, "--out", out)
    _assert_file_error(capsys, path, "bench", path, "--iters", 5, "--skip-exact", "--out", out)
    assert not out.exists()
