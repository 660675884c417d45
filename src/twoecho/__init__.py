"""Two-echelon truck-and-drone routing toolkit.

A truck carries a small drone fleet between stops; drones make round trips
from each stop to nearby customers while the truck waits. The package
minimizes the time everyone is back at the depot, in two modes: one flight
per drone per stop, or repeated flights.
"""

from .baseline import TspResult, compare_mode, gap_percent, solve_tsp
from .construct import ConstructionFailed, ConstructionStart, construct_solution
from .exact import (
    ExactLimits,
    ExactResult,
    SizeLimitError,
    export_milp,
    export_umin_milp,
    import_milp_solution,
    solve_exact,
)
from .grasp import GraspConfig, NoSolutionError, run
from .instancegen import GenConfig, compute_u_min, generate, generate_coincident
from .localsearch import DeltaCache, local_search
from .model import (
    Instance,
    InfeasibleInstanceError,
    InfeasibleSolutionError,
    Point,
    RunReport,
    Solution,
    TimeMatrices,
    TwoEchoError,
    Variant,
    build_time_matrices,
    check_feasibility,
    evaluate,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionFailed",
    "ConstructionStart",
    "DeltaCache",
    "ExactLimits",
    "ExactResult",
    "GenConfig",
    "GraspConfig",
    "InfeasibleInstanceError",
    "InfeasibleSolutionError",
    "Instance",
    "NoSolutionError",
    "Point",
    "RunReport",
    "SizeLimitError",
    "Solution",
    "TimeMatrices",
    "TspResult",
    "TwoEchoError",
    "Variant",
    "build_time_matrices",
    "check_feasibility",
    "compare_mode",
    "compute_u_min",
    "construct_solution",
    "evaluate",
    "export_milp",
    "export_umin_milp",
    "gap_percent",
    "generate",
    "generate_coincident",
    "import_milp_solution",
    "load_instance",
    "load_solution",
    "local_search",
    "run",
    "save_instance",
    "save_solution",
    "solve_exact",
    "solve_tsp",
]
