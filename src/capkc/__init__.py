"""capkc: capacitated k-center solver toolkit.

Exact-rational LP feasibility, the hard-capacity rounding pipeline, a soft
capacity rounder, infeasibility witnesses, instance generators, and a brute
force oracle, all behind one CLI (`capkc`).
"""

from .assignment import Assignment
from .caterpillar import (
    Caterpillar,
    build_caterpillar,
    build_rounding_flow,
    gamma,
    is_safe,
    make_safe,
    round_y,
    separability_witness,
    separate,
    validate_caterpillar,
)
from .errors import CapkcError, InputError, PipelineError, ValidationError
from .exact_oracle import exact_opt, feasible_at
from .graph_core import (
    HARD,
    SOFT,
    Graph,
    WeightedMetricInstance,
    candidate_radii,
    read_instance,
    threshold_graph,
    write_instance,
)
from .instances import (
    gen_fig1,
    gen_gap_construction,
    gen_random_connected,
    gen_x3c,
)
from .lp_feasibility import (
    build_lp1,
    solve_feasibility,
    verify_assignment_feasible,
)
from .shifting import RoundingContext, replay_trace
from .soft_solver import ks_independent_set, solve_soft
from .uniform_witness import (
    greedy_witness_search,
    verify_uniform_witness,
)
from .x_rounding import (
    Solution,
    read_solution,
    round_x,
    validate_solution,
    write_solution,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CapkcError",
    "Caterpillar",
    "Graph",
    "HARD",
    "InputError",
    "PipelineError",
    "RoundingContext",
    "SOFT",
    "Solution",
    "ValidationError",
    "WeightedMetricInstance",
    "build_caterpillar",
    "build_lp1",
    "build_rounding_flow",
    "candidate_radii",
    "exact_opt",
    "feasible_at",
    "gamma",
    "gen_fig1",
    "gen_gap_construction",
    "gen_random_connected",
    "gen_x3c",
    "greedy_witness_search",
    "is_safe",
    "ks_independent_set",
    "make_safe",
    "read_instance",
    "read_solution",
    "replay_trace",
    "round_x",
    "round_y",
    "separability_witness",
    "separate",
    "solve_feasibility",
    "solve_soft",
    "threshold_graph",
    "validate_caterpillar",
    "validate_solution",
    "verify_assignment_feasible",
    "verify_uniform_witness",
    "write_instance",
    "write_solution",
]
