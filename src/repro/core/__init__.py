"""Goal-oriented distributed buffer partitioning — the paper's core
contribution: measure points, hyperplane approximation, the simplex LP,
and the distributed feedback loop of agents and coordinators."""

from repro.core.agent import AgentReport, ClassAgent
from repro.core.controller import ClassSeries, GoalOrientedController
from repro.core.coordinator import Coordinator, CoordinatorDecision
from repro.core.gauss import IndependenceTracker, select_independent
from repro.core.hyperplane import (
    Hyperplane,
    SingularFitError,
    fit_hyperplane,
    regularize_plane,
    weighted_mean_response_time,
)
from repro.core.lp import (
    PartitioningProblem,
    PartitioningSolution,
    VarianceProblem,
    solve_partitioning,
    solve_variance_partitioning,
)
from repro.core.measure import MeasurePoint, MeasureWindow
from repro.core.simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    SimplexResult,
    solve_lp,
)
from repro.core.tolerance import GoalTolerance

__all__ = [
    "AgentReport",
    "ClassAgent",
    "ClassSeries",
    "Coordinator",
    "CoordinatorDecision",
    "GoalOrientedController",
    "GoalTolerance",
    "Hyperplane",
    "INFEASIBLE",
    "ITERATION_LIMIT",
    "IndependenceTracker",
    "MeasurePoint",
    "MeasureWindow",
    "OPTIMAL",
    "PartitioningProblem",
    "PartitioningSolution",
    "SimplexResult",
    "SingularFitError",
    "UNBOUNDED",
    "VarianceProblem",
    "fit_hyperplane",
    "regularize_plane",
    "select_independent",
    "solve_lp",
    "solve_partitioning",
    "solve_variance_partitioning",
    "weighted_mean_response_time",
]
