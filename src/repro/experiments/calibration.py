"""Goal-range calibration (§7.3).

To compare experiments, the paper draws response time goals randomly
from ``[goal_min, goal_max]``, where ``goal_min`` is the goal class's
response time when **2/3** of the aggregate cache is dedicated to it
and ``goal_max`` the response time with **1/3** dedicated.  This module
measures those two anchors by running the workload under static
allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.experiments.runner import CALIBRATION_WARMUP_MS
from repro.sim.stats import OnlineStats
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class GoalRange:
    """Calibrated admissible goal interval for a goal class."""

    class_id: int
    goal_min_ms: float  # RT with 2/3 of the aggregate cache dedicated
    goal_max_ms: float  # RT with 1/3 of the aggregate cache dedicated


class _MeanSink:
    """Workload sink recording per-class response time means."""

    def __init__(self):
        self.stats = {}

    def on_arrival(self, node_id, class_id, now):
        pass

    def on_complete(self, node_id, class_id, response_ms, now):
        self.stats.setdefault(class_id, OnlineStats()).add(response_ms)

    def mean(self, class_id) -> float:
        stats = self.stats.get(class_id)
        return stats.mean if stats else 0.0


def measure_static_rt(
    workload: WorkloadSpec,
    class_id: int,
    dedicated_fraction: float,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    warmup_ms: float = CALIBRATION_WARMUP_MS,
    measure_ms: float = 90_000.0,
) -> float:
    """Steady-state mean RT of ``class_id`` under a static allocation.

    ``dedicated_fraction`` of every node's reserved memory is dedicated
    to the class for the whole run; the first ``warmup_ms`` are
    discarded.
    """
    if not 0.0 <= dedicated_fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    config = config if config is not None else SystemConfig()
    cluster = Cluster(config, seed=seed)
    generator = WorkloadGenerator(cluster, workload)
    generator.start()
    nbytes = int(dedicated_fraction * config.node.buffer_bytes)
    cluster.apply_allocation(class_id, [nbytes] * config.num_nodes)
    cluster.env.run(until=warmup_ms)
    sink = _MeanSink()
    generator.sink = sink
    cluster.env.run(until=warmup_ms + measure_ms)
    return sink.mean(class_id)


def calibrate_goal_range(
    workload: WorkloadSpec,
    class_id: int = 1,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    warmup_ms: float = CALIBRATION_WARMUP_MS,
    measure_ms: float = 90_000.0,
    jobs: int = 1,
) -> GoalRange:
    """Measure the §7.3 goal interval for ``class_id``.

    ``jobs > 1`` runs the two independent static-allocation anchors in
    parallel worker processes; the result is identical to the serial
    path because each anchor is a self-contained seeded simulation.
    """
    tasks = [
        (workload, class_id, fraction, config, seed, warmup_ms, measure_ms)
        for fraction in (2.0 / 3.0, 1.0 / 3.0)
    ]
    if jobs > 1:
        from repro.experiments.parallel import run_tasks

        rt_two_thirds, rt_one_third = run_tasks(
            _measure_static_rt_task, tasks, jobs=jobs
        )
    else:
        rt_two_thirds, rt_one_third = (
            _measure_static_rt_task(task) for task in tasks
        )
    low, high = sorted([rt_two_thirds, rt_one_third])
    return GoalRange(class_id=class_id, goal_min_ms=low, goal_max_ms=high)


def _measure_static_rt_task(task) -> float:
    """Module-level worker so calibration anchors can cross processes."""
    return measure_static_rt(*task)
