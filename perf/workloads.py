"""The benchmark's four pinned workloads.

Each workload is built through the public :class:`Simulation` API the
way the experiments build it, with a 20 000 ms warm-up.  A builder
takes only the seed; the number of measured observation intervals per
repetition is part of the workload, so every run of one workload does
the same simulated work for a given seed.

The workloads stress different layers, so an optimisation of one layer
has a workload that exercises it and one that bypasses it:

* ``figure2`` — the paper's base experiment (§7.1/§7.2).  Mixed hits,
  remote fetches and disk reads; goal changes keep the LP and the
  reallocation path busy.
* ``hot-64n`` — every node's buffer holds the whole database: the hit
  path, engine dispatch and a 64-node controller do the work, victim
  selection almost none.
* ``evict-16n`` — the database is ~24x the aggregate buffer: nearly
  every access misses and evicts, so victim repricing, heat, directory
  churn and the disk path dominate.
* ``multiclass-rw`` — §7.4's two competing goal classes under data
  sharing, with 2PL/WAL/2PC writes in the no-goal class and the
  in-memory telemetry pipeline attached.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402

if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
    SRC, "repro"
):
    raise ImportError(
        f"repro was imported from {repro.__file__}, not from {SRC}"
    )

from repro.cluster.config import SystemConfig  # noqa: E402
from repro.experiments.calibration import GoalRange  # noqa: E402
from repro.experiments.convergence import _next_goal  # noqa: E402
from repro.experiments.multiclass import (  # noqa: E402
    doubled_cache_config,
    multiclass_workload,
)
from repro.experiments.runner import (  # noqa: E402
    DEFAULT_WARMUP_MS,
    Simulation,
    default_workload,
)

#: The calibrated Figure 2 goal range (EXPERIMENTS.md), pinned so the
#: benchmark runs no calibration.
FIGURE2_GOAL_RANGE = GoalRange(1, 3.6, 17.2)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded simulation builder and the
    number of observation intervals one repetition measures."""

    name: str
    build: Callable[[int], Simulation]
    intervals: int


def build_figure2(seed: int) -> Simulation:
    """The base experiment exactly as ``run_figure2`` assembles it.

    A new goal is drawn after four satisfied intervals, at least 25%
    away from the current one, from the cluster's ``figure2/goals``
    stream; the run starts at the midpoint of the goal range.
    """
    goal_range = FIGURE2_GOAL_RANGE
    config = SystemConfig()
    workload = default_workload(config).with_goal(
        1, 0.5 * (goal_range.goal_min_ms + goal_range.goal_max_ms)
    )
    sim = Simulation(
        config=config, workload=workload, seed=seed,
        warmup_ms=DEFAULT_WARMUP_MS,
    )
    rng = sim.cluster.rng.stream("figure2/goals")
    state = {"satisfied_run": 0}

    def goal_changer(controller, interval_index):
        if controller.series[1].satisfied[-1]:
            state["satisfied_run"] += 1
        if state["satisfied_run"] >= 4:
            state["satisfied_run"] = 0
            controller.set_goal(
                1, _next_goal(rng, goal_range, controller.goal_of(1), 0.25)
            )

    sim.controller.on_interval(goal_changer)
    return sim


def build_hot_64n(seed: int) -> Simulation:
    """64 nodes whose 512-frame buffers each hold the 200-page database."""
    config = SystemConfig(num_nodes=64, num_pages=200)
    workload = default_workload(
        config, goal_ms=0.5, arrival_rate_per_node=0.005
    )
    return Simulation(
        config=config, workload=workload, seed=seed,
        warmup_ms=DEFAULT_WARMUP_MS,
    )


def build_evict_16n(seed: int) -> Simulation:
    """16 nodes over a database ~24x their aggregate 8192 frames.

    The goal class's response time stays at 31-35 ms whatever its
    allocation, so the 33 ms goal lies inside that band.
    """
    config = SystemConfig(num_nodes=16, num_pages=200_000)
    workload = default_workload(
        config, goal_ms=33.0, skew=0.5, arrival_rate_per_node=0.008
    )
    return Simulation(
        config=config, workload=workload, seed=seed,
        warmup_ms=DEFAULT_WARMUP_MS,
    )


def build_multiclass_rw(seed: int) -> Simulation:
    """§7.4 with 50% sharing; the no-goal class writes 20% of its pages."""
    config = doubled_cache_config()
    workload = multiclass_workload(config, 4.0, 10.0, sharing=0.5)
    nogoal, *goal_classes = workload.classes
    workload = replace(
        workload,
        classes=[replace(nogoal, write_fraction=0.2), *goal_classes],
    )
    return Simulation(
        config=config, workload=workload, seed=seed,
        warmup_ms=DEFAULT_WARMUP_MS, telemetry=True,
    )


#: ``figure2``'s host time depends on the seed through its randomly
#: drawn goals, so its repetitions are long enough to average several
#: goal changes.  The other workloads' host time does not depend on the
#: seed, so they run short repetitions, and more of them, whose median a
#: burst of host load moves less.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("figure2", build_figure2, 50),
        Workload("hot-64n", build_hot_64n, 12),
        Workload("evict-16n", build_evict_16n, 8),
        Workload("multiclass-rw", build_multiclass_rw, 15),
    )
}
