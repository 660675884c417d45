"""Write ``tests/data/optima.json``: proven optima of the criterion-8 shape.

Run from the repository root:

    PYTHONPATH=src python tests/make_optima.py

The instances are the twelve of the benchmark's ``c8`` workload at seed 0:
generator seeds 42-53 with ``GenConfig(d=20, n_truck=20, m_customers=10)``
and ``u = max(2, u_min)``. Each is solved in both variants by ``solve_exact``
with ``ExactLimits(20, 10, 4)``, about 1 s a solve on a 2-vCPU Xeon. The file
holds each optimum's solution and search counts; ``tests/test_exact.py``
checks the solutions against the instances and against ``run()``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from twoecho import (
    ExactLimits,
    GenConfig,
    Variant,
    build_time_matrices,
    compute_u_min,
    generate,
    solve_exact,
)

OPTIMA = Path(__file__).resolve().parent / "data" / "optima.json"
SEEDS = range(42, 54)
LIMITS = ExactLimits(20, 10, 4)


def c8_instance(seed: int):
    """The criterion-8 shape from generator seed ``seed``, at u = max(2, u_min)."""
    inst = generate(GenConfig(d=20, n_truck=20, m_customers=10, seed=seed))
    inst = inst.replaced(num_drones=max(2, compute_u_min(inst, build_time_matrices(inst))))
    return inst, build_time_matrices(inst)


def main() -> int:
    cases = []
    for seed in SEEDS:
        inst, mats = c8_instance(seed)
        for variant in (Variant.SINGLE, Variant.MULTI):
            res = solve_exact(inst, mats, variant, LIMITS)
            cases.append({
                "seed": seed,
                "num_drones": inst.num_drones,
                "variant": variant.value,
                "objective": res.objective,
                "subsets": res.proof.subsets,
                "assignments": res.proof.assignments,
                "solution": res.solution.to_json_dict(),
            })
            print(f"seed {seed} {variant.value}: {res.objective:.6f} h", flush=True)
    OPTIMA.write_text(json.dumps(cases, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
