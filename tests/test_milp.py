import numpy as np
import pytest

from helpers import make_instance, random_instance
from oracles import (
    count_lp_constraints,
    lp_constraint_count,
    lp_umin_constraint_count,
)
from twoecho import (
    InfeasibleSolutionError,
    Variant,
    build_time_matrices,
    export_milp,
    export_umin_milp,
    import_milp_solution,
    solve_exact,
)
from twoecho.exact import MilpParseError


def test_constraint_counts_match_symbolic_tally():
    rng = np.random.default_rng(41)
    for trial in range(10):
        inst = random_instance(rng, n_lo=3, n_hi=7, m_lo=3, m_hi=10, u_lo=1, u_hi=3)
        mats = build_time_matrices(inst)
        for variant in (Variant.SINGLE, Variant.MULTI):
            text = export_milp(inst, mats, variant, big_m=100.0)
            assert count_lp_constraints(text) == lp_constraint_count(inst, mats, variant), (
                trial,
                variant,
            )
        literal = export_milp(inst, mats, Variant.SINGLE, big_m=100.0, literal_eq13=True)
        assert count_lp_constraints(literal) == lp_constraint_count(
            inst, mats, Variant.SINGLE, literal_eq13=True
        )
        umin = export_umin_milp(inst, mats)
        assert count_lp_constraints(umin) == lp_umin_constraint_count(inst, mats)


def test_lp_structure_basics():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)], num_drones=2)
    mats = build_time_matrices(inst)
    text = export_milp(inst, mats, Variant.SINGLE, big_m=10.0)
    lines = text.splitlines()
    assert lines[1] == "Minimize"
    assert lines[2] == " obj: a_2"
    assert "Subject To" in lines
    assert "Binaries" in lines
    assert lines[-1] == "End"
    assert " depart_depot: x_0_1 + x_0_2 = 1" in lines
    # multi-trip variables carry the drone index first
    multi = export_milp(inst, mats, Variant.MULTI, big_m=10.0)
    assert "z_1_1_0" in multi


def test_umin_model_has_integer_fleet_variable():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6), (8, 2)], num_drones=1)
    mats = build_time_matrices(inst)
    text = export_umin_milp(inst, mats)
    lines = text.splitlines()
    assert lines[2] == " obj: u"
    assert "Generals" in lines
    assert " u" in lines[lines.index("Generals") :]


def _m1_instance():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)], num_drones=1)
    return inst, build_time_matrices(inst)


def test_import_round_trip_single(tmp_path):
    inst, mats = _m1_instance()
    n = inst.n
    t01 = float(mats.t[0][1])
    trip = float(mats.trip[1][0])
    values = tmp_path / "values.sol"
    values.write_text(
        "# hand-written optimum\n"
        "x_0_1 1\n"
        f"x_1_{n} 1\n"
        "y_1 1\n"
        "z_1_0 1\n"
        f"a_1 {t01}\n"
        f"s_1 {trip}\n"
        f"a_{n} {2 * t01 + trip}\n"
    )
    sol = import_milp_solution(values, inst, mats)
    assert sol.variant is Variant.SINGLE
    assert sol.tour == [0, 1]
    assert sol.assign == {0: 1}
    expected = solve_exact(inst, mats, Variant.SINGLE).objective
    assert sol.objective == pytest.approx(expected, abs=1e-9)


def test_import_round_trip_multi(tmp_path):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1\nx_1_2 1\ny_1 1\nz_0_1_0 1\n")
    sol = import_milp_solution(values, inst, mats)
    assert sol.variant is Variant.MULTI
    assert sol.drone_of == {0: 0}


def test_import_empty_plan(tmp_path):
    inst = make_instance([(0, 0), (8, 0)], [], num_drones=1)
    mats = build_time_matrices(inst)
    values = tmp_path / "values.sol"
    values.write_text("x_0_2 1\n")
    sol = import_milp_solution(values, inst, mats, variant=Variant.SINGLE)
    assert sol.tour == [0]
    assert sol.objective == 0.0


def test_import_fractional_binary_names_variable(tmp_path):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1\nx_1_2 1\nz_1_0 0.4\n")
    with pytest.raises(MilpParseError) as err:
        import_milp_solution(values, inst, mats)
    assert "z_1_0" in str(err.value)


def test_import_unserved_customer_is_feasibility_error(tmp_path):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1\nx_1_2 1\ny_1 1\n")
    with pytest.raises(InfeasibleSolutionError):
        import_milp_solution(values, inst, mats, variant=Variant.SINGLE)


def test_import_subtour_rejected(tmp_path):
    inst = make_instance([(0, 0), (8, 0), (8, 4), (0, 4)], [(8, 6)], num_drones=1)
    mats = build_time_matrices(inst)
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1\nx_1_4 1\nz_1_0 1\nx_2_3 1\nx_3_2 1\n")
    with pytest.raises(MilpParseError):
        import_milp_solution(values, inst, mats)


def test_import_bad_line_rejected(tmp_path):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1 extra tokens\n")
    with pytest.raises(MilpParseError):
        import_milp_solution(values, inst, mats)
