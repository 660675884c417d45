import hashlib

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
    GenConfig,
    compute_u_min,
    export_milp,
    export_umin_milp,
    generate,
    generate_coincident,
    import_milp_solution,
    save_instance,
    solve_exact,
)
from twoecho.cli import main
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


# SHA-256 prefixes of the LP texts (single-trip, multi-trip, single-trip with
# literal_eq13, minimum fleet) at big_m = 7.5: generated instances keyed by
# (n, m, u, seed) at d = 20 km, m = 0 included, then coincident ones keyed by
# (n_total, u, seed) at d = 15 km. A refactor of the writer must keep every byte.
PINNED_LP_TEXTS = {
    (1, 0, 1, 16): ("50a289ac1de2", "66e6d0ee0fd6", "fbaba15a5139", "dd7e100b26f8"),
    (2, 1, 1, 0): ("2472c00e818b", "f0a05c2ab4dd", "7a261c0a98e2", "c7e0e46c5d75"),
    (3, 0, 1, 1): ("a28e83fd62f7", "99219211cda0", "156596484b6e", "1deaf5d9aa92"),
    (3, 2, 1, 2): ("b39f112d683f", "dbc81d8c1271", "682ed5209988", "4db93760b0e3"),
    (3, 4, 2, 3): ("66fd94f24fbd", "750964bd6faf", "b3521169a98a", "68b397cec2c6"),
    (4, 3, 1, 4): ("b6a5e70b5fe2", "adccc27c24da", "2299f83cbcfa", "af16cf592709"),
    (4, 6, 2, 5): ("0a93586b7fd0", "8e8139ad74e7", "b503d95d04d1", "2bd742333c31"),
    (4, 8, 3, 6): ("9d01b346f7ee", "5250e141ddbe", "d45665680314", "2bc0aeae0660"),
    (5, 5, 1, 7): ("c9c02198e003", "b6d49addac33", "51b7a9407259", "9fefed0b162c"),
    (5, 9, 2, 8): ("6f4d51454299", "2cc1678dc6d8", "034ddd0adae6", "17edb3919ee3"),
    (6, 4, 3, 9): ("a0d1a16d516a", "4d404a449843", "97102bab5cfa", "83c763531801"),
    (6, 10, 2, 10): ("f1e79366c784", "533943a6bae0", "bdfe2c9baa2b", "f7ca87050966"),
    (7, 7, 1, 11): ("8838a5991614", "3122d2493d39", "d9f95e7d3957", "3f63fa692660"),
    (7, 12, 3, 12): ("bac4db7eb14a", "f77e971c482e", "2a49a1c26464", "b15c840368bd"),
    (8, 8, 2, 13): ("45bd79a6d5b2", "cdbc5af2fc82", "ede13eb0c4ec", "5fb9b9138694"),
    (8, 15, 4, 14): ("cc53346d7026", "879f35d9e4fa", "f7b1406e4db9", "3b7220f6c7ab"),
    (5, 0, 2, 15): ("29f1da2ee8ed", "f4464ab8552d", "9801fe52912d", "67b4b93197c2"),
    (3, 1, 0): ("0ea55b6dcbee", "596dd7a3be40", "fccf61796f4b", "f29cd2d3205d"),
    (5, 2, 1): ("443074dc3886", "f638392b09ff", "7a84dd880ee6", "9672123b018c"),
    (7, 3, 2): ("fae5f55b1a19", "5cc5bd56fc36", "1f19f2f6eeb2", "215e27e80b94"),
    (9, 2, 3): ("a285c05e0e28", "285f53ee3fad", "6afbd81e138a", "5435590618ad"),
}


def test_lp_texts_are_pinned():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    for key, expected in PINNED_LP_TEXTS.items():
        if len(key) == 4:
            n, m, u, seed = key
            inst = generate(GenConfig(d=20.0, n_truck=n, m_customers=m, seed=seed))
            inst = inst.replaced(num_drones=u)
        else:
            n, u, seed = key
            inst = generate_coincident(d=15.0, n_total=n, seed=seed, num_drones=u)
        mats = build_time_matrices(inst)
        texts = (
            export_milp(inst, mats, Variant.SINGLE, big_m=7.5),
            export_milp(inst, mats, Variant.MULTI, big_m=7.5),
            export_milp(inst, mats, Variant.SINGLE, big_m=7.5, literal_eq13=True),
            export_umin_milp(inst, mats),
        )
        assert tuple(digest(text) for text in texts) == expected, key


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


@pytest.mark.parametrize("big_m", [0.0, -1.0, float("inf"), float("nan")])
def test_big_m_must_be_positive_and_finite(big_m):
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)], num_drones=2)
    mats = build_time_matrices(inst)
    for variant in (Variant.SINGLE, Variant.MULTI):
        with pytest.raises(ValueError, match="big_m"):
            export_milp(inst, mats, variant, big_m=big_m)


def test_literal_eq13_is_refused_for_the_multi_trip_model():
    inst = make_instance([(0, 0), (8, 0)], [(8, 6)], num_drones=2)
    mats = build_time_matrices(inst)
    with pytest.raises(ValueError, match="single-trip"):
        export_milp(inst, mats, Variant.MULTI, big_m=10.0, literal_eq13=True)


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


@pytest.mark.parametrize("lane", ["", "0_"])
@pytest.mark.parametrize("stops", [(1, 2), (2, 1)])
def test_import_customer_set_at_two_stops_rejected(tmp_path, capsys, lane, stops):
    # the file says nothing about which stop serves customer 2, so neither
    # line order may pick one; the same holds for the multi-trip z_l_i_k form
    inst = generate(GenConfig(d=20, n_truck=3, m_customers=3, seed=4)).replaced(num_drones=3)
    inst_path = tmp_path / "i.json"
    save_instance(inst, inst_path)
    values = tmp_path / "values.sol"
    z = [f"z_{lane}{i}_{k} 1" for i, k in ((1, 0), (2, 1), (stops[0], 2), (stops[1], 2))]
    values.write_text("\n".join(["x_0_1 1", "x_1_2 1", "x_2_3 1", *z]) + "\n")
    with pytest.raises(MilpParseError) as err:
        import_milp_solution(values, inst)
    assert str(err.value) == "customer 2 has two assignment variables set"
    capsys.readouterr()
    assert main(["import-milp-solution", str(inst_path), str(values)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "tail, message",
    [
        (["z_1_2 1", "z_1_2 0", "z_2_2 1"], "line 7: z_1_2 already set on line 6"),
        (["z_1_2 0", "z_2_2 1", "z_1_2 1"], "line 8: z_1_2 already set on line 6"),
    ],
)
def test_import_repeated_variable_rejected(tmp_path, capsys, tail, message):
    # were the last value of a repeated name kept, line order would decide:
    # the first tail would import customer 2 at node 2, and the second would
    # be refused for two assignments of customer 2
    inst = generate(GenConfig(d=20, n_truck=3, m_customers=3, seed=4)).replaced(num_drones=3)
    inst_path = tmp_path / "i.json"
    save_instance(inst, inst_path)
    values = tmp_path / "values.sol"
    head = ["x_0_1 1", "x_1_2 1", "x_2_3 1", "z_1_0 1", "z_2_1 1"]
    values.write_text("\n".join(head + tail) + "\n")
    with pytest.raises(MilpParseError) as err:
        import_milp_solution(values, inst)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["import-milp-solution", str(inst_path), str(values)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_import_bad_line_rejected(tmp_path):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text("x_0_1 1 extra tokens\n")
    with pytest.raises(MilpParseError):
        import_milp_solution(values, inst, mats)


@pytest.mark.parametrize(
    "line, message",
    [
        ("x_a_1 1", "variable x_a_1 has a non-integer index"),
        ("z_1_x 1", "variable z_1_x has a non-integer index"),
        ("x_0_1 nan", "variable x_0_1 has non-binary value nan"),
        ("x_0_1 inf", "variable x_0_1 has non-binary value inf"),
    ],
)
def test_import_malformed_variable_names_the_variable(tmp_path, line, message):
    inst, mats = _m1_instance()
    values = tmp_path / "values.sol"
    values.write_text(f"{line}\nx_1_2 1\n")
    with pytest.raises(MilpParseError) as err:
        import_milp_solution(values, inst, mats)
    assert str(err.value) == message


def _refuse_optimum_plus(tmp_path, capsys, inst, extra):
    """Write ``inst``'s single-trip optimum as a value file, check that it
    imports as the optimum, and return the refusal of that file with the
    ``extra`` line added, which the CLI reports as one error line."""
    mats = build_time_matrices(inst)
    best = solve_exact(inst, mats, Variant.SINGLE)
    tour = best.solution.tour
    arcs = [f"x_{i}_{j} 1" for i, j in zip(tour, tour[1:] + [inst.n])]
    z = [f"z_{i}_{k} 1" for k, i in sorted(best.solution.assign.items())]
    values = tmp_path / "values.sol"
    values.write_text("\n".join(arcs + z) + "\n")
    assert import_milp_solution(values, inst, mats).objective == pytest.approx(best.objective)

    values.write_text("\n".join(arcs + z + [extra]) + "\n")
    with pytest.raises(MilpParseError) as err:
        import_milp_solution(values, inst, mats)
    inst_path = tmp_path / "i.json"
    save_instance(inst, inst_path)
    capsys.readouterr()
    assert main(["import-milp-solution", str(inst_path), str(values)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    return arcs + z, str(err.value)


@pytest.mark.parametrize("alias", ["z_03_0 0", "z_+3_0 0", "z_３_0 0", "x_00_2 0"])
def test_import_refuses_an_index_spelled_two_ways(tmp_path, capsys, alias):
    # int() reads "03", "+3" and a full-width 3 as 3, so each alias would set
    # a variable the optimum already sets and pass the "set once" check
    inst = generate(GenConfig(d=20, n_truck=4, m_customers=3, seed=4))
    inst = inst.replaced(num_drones=compute_u_min(inst, build_time_matrices(inst)))
    lines, message = _refuse_optimum_plus(tmp_path, capsys, inst, alias)
    assert "z_3_0 1" in lines and "x_0_2 1" in lines
    assert message == f"variable {alias.split()[0]} has a non-integer index"


def test_import_refuses_an_arc_out_of_the_depot_copy(tmp_path, capsys):
    # the model's leave_copy row holds every arc out of the copy at 0; the
    # tour walk stops at the copy, so it cannot see such an arc itself
    inst = generate(GenConfig(d=20, n_truck=4, m_customers=3, seed=7)).replaced(num_drones=3)
    lines, message = _refuse_optimum_plus(tmp_path, capsys, inst, "x_4_2 1")
    assert "x_0_2 1" in lines and "x_1_4 1" in lines
    assert message == "arc variable x_4_2 leaves the depot copy"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("y_3 1", "visit variable y_3 is 1 but node 3 is off the truck tour"),
        ("y_1 0", "visit variable y_1 is 0 but node 1 is on the truck tour"),
    ],
)
def test_import_refuses_a_visit_variable_the_tour_contradicts(tmp_path, capsys, extra, message):
    # the model's indeg_j rows tie y_j to the arcs into node j; the optimum
    # tours 0 -> 2 -> 1, so node 3 is off the tour and node 1 on it
    inst = generate(GenConfig(d=20, n_truck=4, m_customers=3, seed=7)).replaced(num_drones=3)
    lines, refusal = _refuse_optimum_plus(tmp_path, capsys, inst, extra)
    assert "x_0_2 1" in lines and "x_2_1 1" in lines and "x_1_4 1" in lines
    assert refusal == message
