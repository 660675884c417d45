import csv
import json

import pytest

from helpers import make_instance, run_python
from twoecho import load_instance, load_solution, save_instance
from twoecho.cli import main


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


def test_solve_reports_repeated_starts(tiny_instance, tmp_path, capsys):
    rep_path = tmp_path / "r.json"
    assert run_cli("solve", tiny_instance, "--iters", 200, "--report", rep_path) == 0
    repeated = json.loads(rep_path.read_text())["repeated_starts"]
    assert repeated > 0
    assert f"({repeated} repeated starts)" in capsys.readouterr().out


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


def test_non_positive_big_m_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "model.lp"
    _assert_usage_error(capsys, "export-milp", tiny_instance, "--big-m", -1, "--out", out)
    assert not out.exists()


def test_non_finite_big_m_is_usage_error(tiny_instance, tmp_path, capsys):
    out = tmp_path / "model.lp"
    for value in ("inf", "nan"):
        _assert_usage_error(capsys, "export-milp", tiny_instance, "--big-m", value, "--out", out)
    assert not out.exists()


def test_exact_caps_below_one_are_usage_errors(tiny_instance, capsys):
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-nodes", -3)
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-customers", 0)
    _assert_usage_error(capsys, "exact", tiny_instance, "--max-drones", 0)
