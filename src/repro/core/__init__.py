"""Goal-oriented distributed buffer partitioning — the paper's core
contribution: measure points, hyperplane approximation, the Section-4
LP, and the distributed feedback loop of agents and coordinators.

Nothing imported here needs numpy; the §8 variance objective
(:mod:`repro.core.variance`, on the simplex of :mod:`repro.core.simplex`)
is imported only where it is used."""

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
    solve_partitioning,
)
from repro.core.measure import MeasurePoint, MeasureWindow
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
    "IndependenceTracker",
    "MeasurePoint",
    "MeasureWindow",
    "PartitioningProblem",
    "PartitioningSolution",
    "SingularFitError",
    "fit_hyperplane",
    "regularize_plane",
    "select_independent",
    "solve_partitioning",
    "weighted_mean_response_time",
]
