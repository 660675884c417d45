import hashlib
import json
import re

import numpy as np
import pytest

from helpers import make_instance, run_python
from oracles import brute_u_min
from twoecho import (
    GenConfig,
    InfeasibleInstanceError,
    build_time_matrices,
    compute_u_min,
    generate,
    generate_coincident,
    load_instance,
    save_instance,
)
from twoecho.cli import main
from twoecho.instancegen import GenerationError, assignment_witness, min_fleet_size
from twoecho.model import euclidean, instance_to_json_dict


def test_generate_counts_and_name():
    inst = generate(GenConfig(d=20, n_truck=5, m_customers=15, seed=3))
    assert inst.name == "20-5-15"
    assert inst.n == 5 and inst.m == 15
    radius = 0.5 * 40 / 2
    for c in inst.customers:
        assert min(euclidean(v, c) for v in inst.truck_nodes[1:]) <= radius


def test_generate_deterministic_bytes():
    a = generate(GenConfig(d=25, n_truck=6, m_customers=10, seed=99))
    b = generate(GenConfig(d=25, n_truck=6, m_customers=10, seed=99))
    assert json.dumps(instance_to_json_dict(a), sort_keys=True) == json.dumps(
        instance_to_json_dict(b), sort_keys=True
    )


def test_generate_records_seed_and_rng():
    inst = generate(GenConfig(d=20, n_truck=4, m_customers=4, seed=17))
    data = instance_to_json_dict(inst)
    assert data["seed"] == 17
    assert data["rng"] == "numpy-pcg64"


@pytest.mark.parametrize(
    "d, n, m, seed, drone_speed, digest",
    [
        (20, 5, 12, 3, 40.0, "16349de6a124c662"),
        (30, 4, 10, 8, 60.0, "193c663de32c8c0c"),
        (25, 6, 15, 99, 80.0, "6ed3a8fd5628bf04"),
        (20, 20, 10, 42, 40.0, "bc458a34361a4356"),
    ],
)
def test_generate_bytes_pinned_at_40_kmh_and_above(d, n, m, seed, drone_speed, digest):
    # recorded before customers were sampled at min(drone speed, 40 km/h),
    # which is the same float at 40 km/h and above
    inst = generate(GenConfig(d=d, n_truck=n, m_customers=m, drone_speed=drone_speed, seed=seed))
    text = json.dumps(instance_to_json_dict(inst), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_generate_serves_drones_slower_than_40_kmh():
    for seed in range(10):
        inst = generate(
            GenConfig(d=20, n_truck=4, m_customers=8, truck_speed=20, drone_speed=25, seed=seed)
        )
        assert all(build_time_matrices(inst).v_serve)


def test_generate_impossible_with_depot_only():
    # the depot cannot launch drones, so a single truck node serves nobody
    with pytest.raises(GenerationError):
        generate(GenConfig(d=1000, n_truck=1, m_customers=1, seed=0))


def test_generated_instances_stay_valid_at_higher_speeds():
    inst = generate(GenConfig(d=30, n_truck=5, m_customers=12, seed=8))
    for speed in (40, 50, 60, 70, 80):
        faster = inst.replaced(drone_speed=float(speed))
        mats = build_time_matrices(faster)
        assert all(mats.v_serve[k] for k in range(faster.m))


def test_coincident_instance_shape():
    inst = generate_coincident(d=30, n_total=8, seed=5)
    assert inst.name == "30-8"
    assert inst.n == 8 and inst.m == 7
    mats = build_time_matrices(inst)
    for k in range(inst.m):
        assert mats.trip[k + 1][k] == 0.0


def test_u_min_forced_pileup():
    # three customers reachable only from node 1
    inst = make_instance(
        [(0, 0), (30, 0)],
        [(30, 1), (30, 2), (31, 0)],
        d=40,
        num_drones=3,
    )
    mats = build_time_matrices(inst)
    assert mats.v_serve == ((1,), (1,), (1,))
    assert compute_u_min(inst, mats) == 3


def test_u_min_pigeonhole():
    # every customer reachable from both launch-capable nodes: ceil(5 / 2) = 3
    inst = make_instance(
        [(0, 0), (1, 0), (2, 0)],
        [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)],
        num_drones=3,
    )
    mats = build_time_matrices(inst)
    assert all(set(s) == {1, 2} for s in mats.v_serve)
    assert compute_u_min(inst, mats) == 3


def test_u_min_requires_serviceable_customers(tmp_path, capsys):
    # reachable from the depot only, which never launches drones: no launch
    # site, so no such instance can be made, loaded or solved
    message = "customer 0 has no launch-capable truck node within drone range"
    with pytest.raises(InfeasibleInstanceError, match=message):
        make_instance([(0, 0), (30, 0)], [(0, 1)], d=40)
    served = make_instance([(0, 0), (30, 0)], [(30, 1)], d=40)
    with pytest.raises(InfeasibleInstanceError, match=message):
        served.replaced(customers=((0.0, 1.0),))
    path = tmp_path / "depot_only.json"
    path.write_text(json.dumps({**instance_to_json_dict(served), "customers": [[0.0, 1.0]]}))
    with pytest.raises(InfeasibleInstanceError, match=f"^{re.escape(str(path))}: {message}"):
        load_instance(path)
    served_path, sol_path = tmp_path / "served.json", tmp_path / "sol.json"
    save_instance(served, served_path)
    assert main(["solve", str(served_path), "--iters", "5", "--out", str(sol_path)]) == 0
    for argv in (["solve", str(path), "--iters", "5"], ["verify", str(path), str(sol_path)]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, argv
    # raw serve sets skip that check, so the fleet search makes its own
    with pytest.raises(InfeasibleInstanceError, match="customer 1 has no launch-capable"):
        min_fleet_size([(1,), ()], 2)


def test_witness_follows_a_long_augmenting_chain():
    # customer j fits nodes j+1 and j+2; the last fits node 1 only, so every
    # earlier customer must move one node on, in a single augmenting path
    n = 3000
    serve = [(j + 1, j + 2) for j in range(n - 1)] + [(1,)]
    witness = assignment_witness(serve, n + 1, 1)
    assert witness is not None and witness[n - 1] == 1
    assert sorted(witness) == list(range(n))
    assert all(witness[k] in serve[k] for k in range(n))
    assert len(set(witness.values())) == n


def test_import_loads_no_scipy():
    code = "import sys, twoecho; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_min_fleet_size_matches_bruteforce_structures():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        serve = []
        for _ in range(m):
            nodes = list(range(1, n))
            picks = rng.permutation(nodes)[: int(rng.integers(1, n))]
            serve.append(tuple(sorted(int(i) for i in picks)))
        got = min_fleet_size(serve, n)
        assert got == brute_u_min(serve)
        witness = assignment_witness(serve, n, got)
        assert witness is not None
        loads = {}
        for k, i in witness.items():
            assert i in serve[k]
            loads[i] = loads.get(i, 0) + 1
        assert max(loads.values()) <= got
        if got > 1:
            assert assignment_witness(serve, n, got - 1) is None


def test_u_min_monotone_in_reachability():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = generate(
            GenConfig(d=25, n_truck=4, m_customers=8, seed=int(rng.integers(2**62)))
        )
        prev = None
        for speed in (40, 50, 60, 70, 80):
            mats = build_time_matrices(inst.replaced(drone_speed=float(speed)))
            u = compute_u_min(inst, mats)
            if prev is not None:
                assert u <= prev
            prev = u
