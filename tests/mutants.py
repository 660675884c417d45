"""Mutation check of local search's gates, skip rules, commit path and objective,
and of ``evaluate``, construction and the exact solver.

Run from the repository root:

    python tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is one named (file, old text, new text) edit of
``src/``. For each mutant, or each one named, the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a fresh temporary directory, applies the
edit there and runs the ``FAST`` selection of tests with ``-x``, one mutant at
a time, under a ``TIMEOUT_S`` limit. A mutant is killed when a test fails, or
when the run times out (a wrong move can make a search cycle); it survives
when every test passes. The last line of standard output is one strict-JSON
summary, and the exit status is 0 only when every mutant was killed.

``tests/test_mutants.py`` checks in the ordinary test run that each old text
occurs exactly once in ``src/``, so that an edit of the code cannot leave a
mutant that no longer applies.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FAST = ("tests/test_localsearch.py", "tests/test_golden.py", "tests/test_grasp.py", "tests/test_exact.py")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


LS = "src/twoecho/localsearch.py"
EX = "src/twoecho/exact.py"

MUTANTS = (
    # gates that skip candidates which cannot gain more than IMPROVE_EPS
    Mutant("swap_assignment1_gate_1e-5", LS,
           "if low1 + low2 >= -IMPROVE_EPS:", "if low1 + low2 >= -1e-5:"),
    Mutant("swap_assignment1_gate_1e-3", LS,
           "if low1 + low2 >= -IMPROVE_EPS:", "if low1 + low2 >= -1e-3:"),
    Mutant("re_assignment1_rem_gate_1e-5", LS,
           "if need <= IMPROVE_EPS:\n                continue  # the target",
           "if need <= 1e-5:\n                continue  # the target"),
    Mutant("re_assignment1_rem_gate_1e-3", LS,
           "if need <= IMPROVE_EPS:\n                continue  # the target",
           "if need <= 1e-3:\n                continue  # the target"),
    Mutant("re_assignment1_delta_gate_1e-3", LS,
           "if delta >= -IMPROVE_EPS:\n                    continue  # the whole",
           "if delta >= -1e-3:\n                    continue  # the whole"),
    Mutant("re_assignment2_rem_gate_1e-5", LS,
           "if need <= IMPROVE_EPS:\n                        continue  # the growth",
           "if need <= 1e-5:\n                        continue  # the growth"),
    Mutant("re_assignment2_rem_gate_1e-3", LS,
           "if need <= IMPROVE_EPS:\n                        continue  # the growth",
           "if need <= 1e-3:\n                        continue  # the growth"),
    Mutant("zigzag_assignment_gate_1e-5", LS,
           "if di >= -IMPROVE_EPS:", "if di >= -1e-5:"),
    Mutant("zigzag_assignment_gate_1e-3", LS,
           "if di >= -IMPROVE_EPS:", "if di >= -1e-3:"),
    # the slack gates, which skip a target without costing the move
    Mutant("re_assignment1_slack_gate_1e-5", LS,
           "if trip[j][k] - slack[j] >= need or", "if trip[j][k] - slack[j] >= need - 1e-5 or"),
    Mutant("re_assignment2_slack_gate_first_1e-5", LS,
           "if tj1 - slack[j] >= need or", "if tj1 - slack[j] >= need - 1e-5 or"),
    Mutant("re_assignment2_slack_gate_second_1e-5", LS,
           "if tj2 - slack[j] >= need:", "if tj2 - slack[j] >= need - 1e-5:"),
    Mutant("zigzag_assignment_slack_gate_1e-5", LS,
           "if tk - slack[i2] >= need or", "if tk - slack[i2] >= need - 1e-5 or"),
    Mutant("re_assignment1_slack_gate_1e-3", LS,
           "if trip[j][k] - slack[j] >= need or", "if trip[j][k] - slack[j] >= need - 1e-3 or"),
    Mutant("re_assignment2_slack_gate_first_1e-3", LS,
           "if tj1 - slack[j] >= need or", "if tj1 - slack[j] >= need - 1e-3 or"),
    Mutant("re_assignment2_slack_gate_second_1e-3", LS,
           "if tj2 - slack[j] >= need:", "if tj2 - slack[j] >= need - 1e-3:"),
    Mutant("zigzag_assignment_slack_gate_1e-3", LS,
           "if tk - slack[i2] >= need or", "if tk - slack[i2] >= need - 1e-3 or"),
    Mutant("slack_unrefreshed", LS,
           "        self.slack[i] = wait - least if len(self.cust_at[i]) < self.cap else FULL\n", ""),
    Mutant("full_stop_slack_zero", LS, "else FULL\n", "else 0.0\n"),
    Mutant("greedy_repack_gate_1e-5", LS,
           "if new_wait < self.wait[i] - IMPROVE_EPS:", "if new_wait < self.wait[i] - 1e-5:"),
    # skip rules
    Mutant("floor_tolerance_1e-5", LS,
           "if trip[k] == wait:", "if trip[k] >= wait - 1e-5:"),
    Mutant("clean_stop_ignores_stamp", LS,
           "if clean[i] == stamp[i]:", "if clean[i] >= 0:"),
    Mutant("state_key_without_drones", LS,
           "        packed.extend(map(drone_of.__getitem__, customers))", "        pass"),
    # the commit path
    Mutant("re_assignment2_wrong_lane", LS,
           "((k1, j, lj1), (k2, j, lj2))", "((k1, j, lj1), (k2, j, lj1))"),
    Mutant("commit_skips_target_rerank", LS,
           "            touched.add(i)\n", ""),
    # the objective that decides whether an optimum is exported
    Mutant("objective_without_closing_leg", LS,
           "return clock + wait[prev] + t[prev][0]", "return clock + wait[prev]"),
    # outside local search: evaluate, construction, the exact solver
    Mutant("evaluate_longest_flight", "src/twoecho/model.py",
           "waits[i] = max(waits[i], sum(flights, 0.0))", "waits[i] = max(waits[i], max(flights))"),
    Mutant("construction_edits_shared_load_row", "src/twoecho/construct.py",
           "            self.loads[i] = [0.0] * self.inst.num_drones\n", ""),
    Mutant("construction_edits_shared_arc_lists", "src/twoecho/construct.py",
           "first = len(tour) == 1", "first = False"),
    Mutant("exact_prune_1e-5", EX,
           "if tour_cost + total_wait >= best_obj:", "if tour_cost + total_wait >= best_obj - 1e-5:"),
    Mutant("exact_subset_prune_1e-5", EX,
           "if tour_cost >= best_obj or", "if tour_cost >= best_obj - 1e-5 or"),
    Mutant("exact_wait_bound_tolerance_1e-6", EX,
           "bound[mask] >= best_obj * (1 + 1e-12)", "bound[mask] >= best_obj * (1 - 1e-6)"),
    Mutant("exact_wait_floor_plus_1e-6", EX,
           "for k in ks), default=math.inf)", "for k in ks), default=math.inf) + 1e-6"),
    Mutant("exact_popcount_floor_plus_1", EX,
           "layers[-(-m // cap) if", "layers[-(-m // cap) + 1 if"),
    Mutant("exact_coverage_skips_first_customer", EX,
           "for sites in mats.v_serve:\n        masks", "for sites in mats.v_serve[1:]:\n        masks"),
    Mutant("exact_no_customers_floor_1", EX,
           "if m else 0 :]", "if m else 1 :]"),
    Mutant("exact_packing_without_memo", EX,
           "packing = functools.cache(minmax_packing)", "packing = minmax_packing"),
    Mutant("held_karp_own_column", EX,
           "np.take(dp, sel ^ (1 << j), axis=1)", "np.take(dp, sel, axis=1)"),
    Mutant("random_blocks_drop_carry", "src/twoecho/construct.py",
           "buf = self._buf = buf[at:] + self._rng.random(", "buf = self._buf = self._rng.random("),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> dict:
    """Apply ``mutant`` to a copy of the tree and run ``FAST`` there."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="twoecho-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *FAST]
        # a session of its own, so that a timeout or an interrupt also ends
        # any worker a test started
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        if out is None:
            out, _ = proc.communicate()
            status, killed_by = "timeout", None
        else:
            failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
            killed_by = failed.group(1) if failed else None
            status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    result = {"name": mutant.name, "file": mutant.file, "status": status,
              "killed_by": killed_by, "seconds": round(time.perf_counter() - start, 1)}
    if status == "error":
        result["output"] = out[-2000:]
    return result


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    results = []
    for mutant in chosen:
        result = run_mutant(mutant)
        print(f"{result['name']}: {result['status']} in {result['seconds']} s"
              + (f" by {result['killed_by']}" if result["killed_by"] else ""), flush=True)
        results.append(result)
    killed = [r["name"] for r in results if r["status"] in ("killed", "timeout")]
    summary = {
        "selection": list(FAST),
        "timeout_s": TIMEOUT_S,
        "mutants": results,
        "killed": len(killed),
        "total": len(results),
        "not_killed": [r["name"] for r in results if r["name"] not in killed],
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(json.dumps(summary, allow_nan=False))
    return 0 if len(killed) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
