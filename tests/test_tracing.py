"""The seams that the benchmark tracer binds, and the traced run's output.

``benchmarks/tracing.py`` rebinds module and class attributes of ``twoecho``
by name while it is installed. A refactor that renames or drops one of them
still passes an untraced benchmark run but fails every traced one, so these
tests install the tracer, check what it bound and restored and what it
counted, and run one short traced benchmark.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

from helpers import make_instance
from twoecho import Variant, grasp
from twoecho.localsearch import DeltaCache

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_binds_every_site_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    sites = [(owner, attr) for owner, attr, _ in tracing.SPAN_SITES + tracing.COUNTER_SITES]
    sites.append((DeltaCache, "_accept"))
    originals = [getattr(owner, attr) for owner, attr in sites]
    run, two_opt = grasp.run, DeltaCache.two_opt

    with tracing.Tracer().installed():
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr

    assert grasp.run is run
    assert DeltaCache.two_opt is two_opt
    assert [getattr(owner, attr) for owner, attr in sites] == originals


def test_construct_span_counts_every_construction_and_failure(monkeypatch):
    # the two figures that construct.calls and construct.fail_ratio read
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    # single-trip: customer 0 fits only at node 2, so a construction fails
    # whenever customer 1 takes node 2 first
    inst = make_instance([(0, 0), (20, 0), (30, 0)], [(36, 0), (25, 0)], d=40)
    with tracing.Tracer().installed() as tracer:
        _, report = grasp.run(inst, grasp.GraspConfig(variant=Variant.SINGLE, n_max=40, seed=3))
    assert 0 < report.construction_failures < report.iterations == 40
    assert tracer.summary()["construct"]["count"] == report.iterations
    assert tracer.raised[("construct", "ConstructionFailed")] == report.construction_failures


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_traced_benchmark_ends_with_a_strict_json_result():
    # writes only the gitignored .bench_out/ besides its standard output
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "0.5", "--trace", "1"],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
