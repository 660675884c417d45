"""Smoke test: the demo scripts run to completion.

Demo 04 is left out: its truck-only comparison grid takes about 13 s on a
2-vCPU machine, where each of these takes 2 s or less.
"""

import pytest

from helpers import ROOT, run_python


@pytest.mark.parametrize(
    "script",
    [
        "01_build_and_inspect_instances.py",
        "02_construction_and_local_search.py",
        "03_exact_vs_heuristic.py",
        "05_milp_export_and_import.py",
    ],
)
def test_demo_runs(script):
    done = run_python(ROOT / "demos" / script)
    assert done.returncode == 0, done.stderr
