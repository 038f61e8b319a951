"""Table 1 — CPU execution time of the coordinator tasks (§5).

The paper times three coordinator-side computations on a SUN Sparc 4
for different numbers of nodes N:

* **Lin. Independence** — maintaining the N + 1 most recent measure
  points with linearly independent difference vectors (incremental
  Gauss);
* **Approximation** — determining the hyperplane coefficients from the
  retained points;
* **Optimization** — solving the linear program (the paper uses the
  simplex method; :mod:`repro.core.lp` solves the same one-equality LP
  by its exact fractional-knapsack greedy).

Absolute milliseconds are hardware-bound; the reproduction measures the
same three tasks on the present machine and checks the paper's *shape*:
all three grow with N and the total stays small (low milliseconds).

Run it with ``python -m repro table1``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.hyperplane import dot, fit_hyperplane
from repro.core.lp import PartitioningProblem, solve_partitioning
from repro.core.measure import MeasureWindow
from repro.experiments.reporting import format_table

#: The node counts of the paper's Table 1.
PAPER_NODE_COUNTS = (5, 10, 20, 30, 40, 50)

#: The paper's measured values in ms (for EXPERIMENTS.md comparison).
PAPER_TABLE1 = {
    5: (0.1, 0.24, 0.9, 1.24),
    10: (0.2, 0.6, 1.6, 2.4),
    20: (0.7, 2.7, 2.3, 5.7),
    30: (2.4, 5.5, 2.7, 10.6),
    40: (2.8, 11.1, 3.3, 17.2),
    50: (4.2, 14.8, 5.4, 24.4),
}

#: Buffer bytes per node of the synthetic points and problems (§7.1).
NODE_SIZE = 2 * 1024 * 1024
#: Seed of the synthetic window and problem :func:`measure_row` times.
SEED = 0


@dataclass
class Table1Row:
    """Measured per-task times for one node count."""

    num_nodes: int
    lin_independence_ms: float
    approximation_ms: float
    optimization_ms: float

    @property
    def overall_ms(self) -> float:
        """Sum over the three tasks, as in the paper's last row."""
        return (
            self.lin_independence_ms
            + self.approximation_ms
            + self.optimization_ms
        )


def synthetic_points(
    num_nodes: int, count: Optional[int] = None, seed: int = 0,
):
    """Random (allocation, rt_goal, rt_nogoal) tuples for benchmarking.

    Response times come from a known plane plus noise, allocations are
    random within the node bounds — shaped exactly like the points a
    coordinator accumulates.
    """
    rng = random.Random(seed)
    count = count if count is not None else num_nodes + 1
    kappa = [-rng.uniform(0.5, 1.5) * 1e-6 for _ in range(num_nodes)]
    eta = [rng.uniform(0.5, 1.5) * 1e-6 for _ in range(num_nodes)]
    points = []
    for _ in range(count):
        alloc = [rng.uniform(0, NODE_SIZE) for _ in range(num_nodes)]
        rt_goal = 20.0 + dot(kappa, alloc) + rng.gauss(0, 0.05)
        rt_nogoal = 2.0 + dot(eta, alloc) + rng.gauss(0, 0.05)
        points.append((alloc, max(rt_goal, 0.1), max(rt_nogoal, 0.1)))
    return points


def build_window(num_nodes: int, seed: int = 0) -> MeasureWindow:
    """A measure window pre-filled with N + 1 independent points."""
    window = MeasureWindow(num_nodes)
    for i, (alloc, rt_g, rt_n) in enumerate(
        synthetic_points(num_nodes, num_nodes + 2, seed)
    ):
        window.observe(alloc, rt_g, rt_n, time=float(i))
    return window


def task_lin_independence(window: MeasureWindow, point) -> None:
    """One phase-(b) update: fold in a point, re-select the window."""
    alloc, rt_g, rt_n = point
    window.observe(alloc, rt_g, rt_n, time=window.newest.time + 1.0)
    window.selected_points()


def task_approximation(window: MeasureWindow):
    """One phase-(d) plane fit from the retained points."""
    points = window.selected_points()
    fit_hyperplane([(p.allocation, p.rt_goal) for p in points])
    return fit_hyperplane([(p.allocation, p.rt_nogoal) for p in points])


def task_optimization(problem: PartitioningProblem):
    """One phase-(d) LP solve."""
    return solve_partitioning(problem)


def build_problem(num_nodes: int, seed: int = 0) -> PartitioningProblem:
    """A representative partitioning LP for ``num_nodes`` nodes."""
    window = build_window(num_nodes, seed)
    goal_plane, nogoal_plane = window.fit_planes()
    # Pin the goal to a reachable value in the plane's range.
    mid_alloc = [1 * 1024 * 1024] * num_nodes
    rt_goal = max(goal_plane.predict(mid_alloc), 0.5)
    return PartitioningProblem(
        goal_plane=goal_plane,
        nogoal_plane=nogoal_plane,
        rt_goal=rt_goal,
        upper_bounds=[NODE_SIZE] * num_nodes,
    )


def _time_ms(fn: Callable, repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return (time.perf_counter() - start) / repetitions * 1_000.0


def measure_row(num_nodes: int, repetitions: int = 50) -> Table1Row:
    """Measure all three coordinator tasks for one node count."""
    window = build_window(num_nodes, SEED)
    extra_points = synthetic_points(num_nodes, repetitions + 1, SEED + 1)
    state = {"i": 0}

    def lin_independence():
        point = extra_points[state["i"] % len(extra_points)]
        state["i"] += 1
        task_lin_independence(window, point)

    lin_ms = _time_ms(lin_independence, repetitions)
    approx_ms = _time_ms(lambda: task_approximation(window), repetitions)
    problem = build_problem(num_nodes, SEED)
    opt_ms = _time_ms(lambda: task_optimization(problem), repetitions)
    return Table1Row(
        num_nodes=num_nodes,
        lin_independence_ms=lin_ms,
        approximation_ms=approx_ms,
        optimization_ms=opt_ms,
    )


def run_table1(
    node_counts: Sequence[int] = PAPER_NODE_COUNTS,
    repetitions: int = 50,
) -> List[Table1Row]:
    """Measure the full Table 1."""
    return [measure_row(n, repetitions) for n in node_counts]


def to_text(rows: List[Table1Row]) -> str:
    """Render measured rows next to the paper's values."""
    body = []
    for row in rows:
        paper = PAPER_TABLE1.get(row.num_nodes)
        body.append(
            [
                row.num_nodes,
                row.lin_independence_ms,
                row.approximation_ms,
                row.optimization_ms,
                row.overall_ms,
                paper[3] if paper else "-",
            ]
        )
    return format_table(
        ["N", "lin.indep (ms)", "approx (ms)", "optimize (ms)",
         "overall (ms)", "paper overall (ms)"],
        body,
        title="Table 1: coordinator CPU time per task",
    )
