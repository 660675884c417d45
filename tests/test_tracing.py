"""The seams that the benchmark tracer binds.

``benchmarks/tracing.py`` rebinds module and class attributes of ``twoecho``
by name while it is installed. A refactor that renames or drops one of them
still passes an untraced benchmark run but fails every traced one, so this
test installs the tracer once and checks what it bound and restored.
"""

import importlib
from pathlib import Path

from twoecho import grasp
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
