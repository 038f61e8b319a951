"""The convergence-speed measurement protocol (§7.1).

The paper measures how many iterations of the feedback-controlled loop
the system needs to find a satisfying partitioning after a goal
change:

* goals are drawn randomly from the calibrated ``[goal_min, goal_max]``
  interval (see :mod:`repro.experiments.calibration`) such that the new
  goal "differs significantly from the current goal";
* after a goal change, the number of observation intervals until the
  first satisfied interval is one *convergence sample*;
* the goal is changed again after four satisfied intervals;
* experiments are replicated until the mean convergence speed is known
  to within 1 iteration at 99 % statistical confidence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.calibration import GoalRange, calibrate_goal_range
from repro.experiments.parallel import (
    derive_replicate_seed,
    replicate_with_stopping,
)
from repro.experiments.runner import (
    ARRIVAL_RATE_PER_NODE,
    DEFAULT_WARMUP_MS,
    Simulation,
    default_workload,
)
from repro.cluster.config import SystemConfig
from repro.sim.stats import mean_confidence_interval

#: The goal-change rule §7.1 and Figure 2 share: the goal class whose
#: goal changes, the satisfied intervals required before the next
#: change, the minimum relative difference between successive goals,
#: and the intervals waited for convergence after one change.
GOAL_CLASS = 1
SATISFIED_BEFORE_CHANGE = 4
MIN_GOAL_CHANGE = 0.25
MAX_INTERVALS_PER_CHANGE = 40


@dataclass
class ConvergenceSettings:
    """Everything that parameterizes one convergence measurement."""

    skew: float = 0.0
    config: SystemConfig = field(default_factory=SystemConfig)
    arrival_rate_per_node: float = ARRIVAL_RATE_PER_NODE
    #: Simulated warm time before the controller starts.
    warmup_ms: float = DEFAULT_WARMUP_MS
    #: Intervals allowed for the initial (cold-start) convergence.
    initial_intervals: int = 40
    #: Goal changes measured per replication.
    goal_changes_per_run: int = 5


@dataclass
class ConvergenceResult:
    """Summary of one convergence experiment (one skew value)."""

    skew: float
    mean_iterations: float
    half_width: float
    samples: List[int]
    goal_range: GoalRange


def _next_goal(rng, goal_range: GoalRange, current: float,
               min_change: float) -> float:
    """Random satisfiable goal differing significantly from ``current``."""
    for _ in range(64):
        candidate = rng.uniform(goal_range.goal_min_ms, goal_range.goal_max_ms)
        if abs(candidate - current) > min_change * current:
            return candidate
    # Interval too narrow to differ by min_change: jump to the far end.
    mid = 0.5 * (goal_range.goal_min_ms + goal_range.goal_max_ms)
    return goal_range.goal_max_ms if current < mid else goal_range.goal_min_ms


def measure_convergence_run(
    settings: ConvergenceSettings,
    goal_range: GoalRange,
    seed: int,
) -> List[int]:
    """One replication: convergence samples for several goal changes."""
    workload = default_workload(
        settings.config,
        goal_ms=0.5 * (goal_range.goal_min_ms + goal_range.goal_max_ms),
        skew=settings.skew,
        arrival_rate_per_node=settings.arrival_rate_per_node,
    )
    sim = Simulation(
        config=settings.config,
        workload=workload,
        seed=seed,
        warmup_ms=settings.warmup_ms,
    )
    sim.run(intervals=settings.initial_intervals)
    rng = sim.cluster.rng.stream(f"goal-changes/{seed}")
    samples: List[int] = []
    current_goal = sim.controller.goal_of(GOAL_CLASS)
    for _ in range(settings.goal_changes_per_run):
        current_goal = _next_goal(
            rng, goal_range, current_goal, MIN_GOAL_CHANGE
        )
        sim.controller.set_goal(GOAL_CLASS, current_goal)
        iterations = 0
        satisfied_seen = 0
        converged_at: Optional[int] = None
        while iterations < MAX_INTERVALS_PER_CHANGE:
            sim.run(intervals=1)
            iterations += 1
            if sim.controller.series[GOAL_CLASS].satisfied[-1]:
                if converged_at is None:
                    converged_at = iterations
                satisfied_seen += 1
                if satisfied_seen >= SATISFIED_BEFORE_CHANGE:
                    break
        samples.append(
            converged_at if converged_at is not None
            else MAX_INTERVALS_PER_CHANGE
        )
    return samples


def _convergence_replicate(
    settings: ConvergenceSettings,
    goal_range: GoalRange,
    base_seed: int,
    index: int,
) -> List[int]:
    """Replicate ``index`` of a convergence experiment.

    Module-level (with picklable arguments) so ``functools.partial``
    over it can cross the process boundary when ``jobs > 1``.
    """
    return measure_convergence_run(
        settings, goal_range, seed=derive_replicate_seed(base_seed, index)
    )


def convergence_experiment(
    settings: Optional[ConvergenceSettings] = None,
    goal_range: Optional[GoalRange] = None,
    target_half_width: float = 1.0,
    min_replications: int = 3,
    max_replications: int = 12,
    base_seed: int = 100,
    jobs: int = 1,
) -> ConvergenceResult:
    """Replicated convergence measurement for one skew setting.

    Replication stops once the 99 % confidence interval half-width of
    the mean drops below ``target_half_width`` iterations (the paper's
    "accuracy of less than 1 iteration ... with a statistical
    confidence of 99 percent"), or at ``max_replications``.

    ``jobs`` runs replicates on worker processes; the stopping rule is
    applied over the index-ordered prefix of replicate results, so any
    ``jobs`` value yields the same samples and statistics as ``jobs=1``.

    Every replicate here has its own seed, so no two units of work
    share a warm-up trajectory and there is nothing for the fork path
    of :mod:`repro.experiments.forkserver` to amortize.
    """
    settings = settings if settings is not None else ConvergenceSettings()
    if goal_range is None:
        workload = default_workload(
            settings.config,
            skew=settings.skew,
            arrival_rate_per_node=settings.arrival_rate_per_node,
        )
        goal_range = calibrate_goal_range(
            workload,
            class_id=GOAL_CLASS,
            config=settings.config,
            seed=base_seed,
            jobs=jobs,
        )
    worker = functools.partial(
        _convergence_replicate, settings, goal_range, base_seed
    )

    def stop(runs: List[List[int]]) -> bool:
        merged = [sample for run in runs for sample in run]
        _, half = mean_confidence_interval(merged)
        return half <= target_half_width

    runs = replicate_with_stopping(
        worker, min_replications, max_replications, stop, jobs=jobs
    )
    samples = [sample for run in runs for sample in run]
    mean, half = mean_confidence_interval(samples)
    return ConvergenceResult(
        skew=settings.skew,
        mean_iterations=mean,
        half_width=half,
        samples=samples,
        goal_range=goal_range,
    )
