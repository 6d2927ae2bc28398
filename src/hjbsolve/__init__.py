"""Solvers for static Hamilton-Jacobi-Bellman equations on regular grids.

Value iteration, Howard policy iteration, and a coarse-to-fine accelerated
coupling over a shared semi-Lagrangian discretization, plus a benchmark
harness for infinite-horizon and minimum-time control problems.
"""

from .grid import (
    GridError,
    RegularGrid,
    ValueField,
    interpolate,
    l1_diff,
    prolongate,
    sup_diff,
    write_field_table,
)
from .problems import (
    CatalogEntry,
    ControlSet,
    InfiniteHorizon,
    MinimumTime,
    ProblemError,
    ProblemSpec,
    catalog,
    catalog_names,
    discretize_circle,
    discretize_control_box,
    target_mask,
)
from .solvers import (
    PolicyField,
    RunReport,
    SolverConfig,
    SolverError,
    api_solve,
    bellman_update,
    default_initial_field,
    greedy_control_index,
    policy_evaluation_direct,
    policy_evaluation_fixed_point,
    policy_iteration,
    value_iteration,
)
from .analysis import (
    ErrorRecord,
    Trajectory,
    convergence_rates,
    error_vs_reference,
    kruzkhov_to_time,
    minimum_time_reference,
    synthesize_trajectory,
    time_to_kruzkhov,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ControlSet",
    "ErrorRecord",
    "GridError",
    "InfiniteHorizon",
    "MinimumTime",
    "PolicyField",
    "ProblemError",
    "ProblemSpec",
    "RegularGrid",
    "RunReport",
    "SolverConfig",
    "SolverError",
    "Trajectory",
    "ValueField",
    "api_solve",
    "bellman_update",
    "catalog",
    "catalog_names",
    "convergence_rates",
    "default_initial_field",
    "discretize_circle",
    "discretize_control_box",
    "error_vs_reference",
    "greedy_control_index",
    "interpolate",
    "kruzkhov_to_time",
    "l1_diff",
    "minimum_time_reference",
    "policy_evaluation_direct",
    "policy_evaluation_fixed_point",
    "policy_iteration",
    "prolongate",
    "sup_diff",
    "synthesize_trajectory",
    "target_mask",
    "time_to_kruzkhov",
    "value_iteration",
    "write_field_table",
]
