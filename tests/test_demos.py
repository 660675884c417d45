"""Smoke test: the demo scripts run to completion.

Demo 04 is left out: its truck-only comparison grid takes about 13 s on a
2-vCPU machine, where each of these takes 2 s or less.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
