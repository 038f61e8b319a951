"""Feasibility-frontier extraction for analytic goal-space pre-screening.

A goal sweep asks, for each candidate response-time goal, how the
feedback loop settles: how much memory it dedicates and whether the
goal is attainable at all.  Analytically those questions reduce to the
*allocation curve* ``R(f)`` — the predicted response time of the goal
class when ``f`` frames per node are dedicated to it — which is
monotone non-increasing in ``f``.  One pass of MVA solves over a frames
grid therefore answers **every** goal in the sweep range:

* ``goal < R(f_max)``  — infeasible: even all the memory is not enough;
* ``goal > R(0)``      — slack: satisfied with no dedicated memory;
* otherwise            — binding: the interesting regime, where the
  controller must find ``f*(goal) = min{f : R(f) <= goal}``.

:func:`prescreen_goals` evaluates a dense goal grid this way in
milliseconds and selects the small subset worth simulating: the grid
endpoints, both sides of every regime boundary, and evenly spaced
representatives of the binding regime, within a budget of ~5% of the
grid (never more than 10%).  :func:`prescreen_goal_pairs` is the
two-class analogue over (goal k1, goal k2) grids, classifying pairs by
whether *any* split of the memory satisfies both goals at once and
selecting the cells where feasibility flips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytic.bridge import predict_response
from repro.cluster.config import SystemConfig
from repro.workload.spec import WorkloadSpec

INFEASIBLE = "infeasible"
BINDING = "binding"
SLACK = "slack"

#: The MVA solver both prescreens run (:func:`repro.analytic.mva.solve`).
METHOD = "schweitzer"
#: The allocation curve's resolution: frame counts per node, at most.
CURVE_POINTS = 129
#: Frame counts per class along each axis of the two-class split grid.
SPLITS = 9
#: The goal class :func:`prescreen_goals` dedicates memory to, and the
#: two goal classes :func:`prescreen_goal_pairs` splits it between.
GOAL_CLASS = 1
GOAL_CLASSES = (1, 2)


@dataclass
class GoalScreenPoint:
    """Analytic verdict for one candidate goal."""

    goal_ms: float
    regime: str
    #: Predicted steady-state RT at the minimal satisfying allocation
    #: (the full-allocation RT for infeasible goals).
    predicted_rt_ms: float
    #: Minimal dedicated bytes per node that satisfies the goal
    #: (None for infeasible goals).
    dedicated_bytes_per_node: Optional[int]


@dataclass
class PrescreenReport:
    """Result of one analytic pre-screening pass."""

    points: List[GoalScreenPoint]
    #: Indices (into ``points``) selected for simulation.
    selected: List[int]
    solver_ms: float
    solver_iterations: int
    #: MVA solves performed (the allocation-curve evaluations).
    solves: int
    budget: int

    @property
    def grid_size(self) -> int:
        """Number of goals classified."""
        return len(self.points)

    @property
    def frontier_size(self) -> int:
        """Number of goals selected for simulation."""
        return len(self.selected)

    def selected_goals(self) -> List[float]:
        """The selected goals (ms), in grid order."""
        return [self.points[i].goal_ms for i in self.selected]

    def regime_counts(self) -> Dict[str, int]:
        """Histogram of regimes over the classified grid."""
        counts: Dict[str, int] = {}
        for p in self.points:
            counts[p.regime] = counts.get(p.regime, 0) + 1
        return counts

    def trace_fields(self) -> Dict:
        """The record body for the ``prescreen`` telemetry kind."""
        return dict(
            grid=self.grid_size,
            frontier=self.frontier_size,
            solver_iterations=self.solver_iterations,
            solves=self.solves,
            ms=round(self.solver_ms, 3),
            budget=self.budget,
            regimes=self.regime_counts(),
        )


def _budget(grid: int) -> int:
    """Simulation budget: ~5% of the grid, hard-capped at 10%."""
    return max(1, min(max(4, grid // 20), max(grid // 10, 1)))


def allocation_curve(
    config: SystemConfig,
    workload: WorkloadSpec,
) -> Tuple[List[int], List[float], int, int]:
    """Evaluate ``R(frames)`` for the goal class over a frames grid.

    Returns ``(frames, response_ms, solver_iterations, solves)``.  The
    grid spans 0..buffer_pages_per_node inclusive; ``CURVE_POINTS``
    caps its resolution (the curve is interpolated between grid frames
    by conservative step lookup, not linearly).
    """
    cap = config.buffer_pages_per_node
    count = min(cap + 1, max(CURVE_POINTS, 2))
    frames_grid = sorted({
        round(i * cap / (count - 1)) for i in range(count)
    })
    page = config.page_size
    responses: List[float] = []
    iterations = 0
    for f in frames_grid:
        prediction = predict_response(
            config, workload, allocation={GOAL_CLASS: f * page},
            method=METHOD,
        )
        responses.append(prediction.response_of(GOAL_CLASS))
        iterations += prediction.iterations
    return list(frames_grid), responses, iterations, len(frames_grid)


def _minimal_frames(
    frames: Sequence[int], responses: Sequence[float], goal_ms: float
) -> Optional[Tuple[int, float]]:
    """Smallest gridded allocation with ``R(f) <= goal``.

    A linear scan, not bisection: ``R(f)`` is *mostly* monotone
    non-increasing, but dedicating memory also starves the no-goal
    class and raises shared-station congestion, which can bend the
    curve locally.  Returns None when no allocation reaches the goal.
    """
    for f, rt in zip(frames, responses):
        if rt <= goal_ms:
            return f, rt
    return None


def prescreen_goals(
    config: SystemConfig,
    workload: WorkloadSpec,
    goals: Sequence[float],
) -> PrescreenReport:
    """Screen a dense goal grid analytically; pick points to simulate.

    One allocation-curve evaluation (``CURVE_POINTS`` MVA solves)
    answers every goal: each is classified into its regime and given
    its minimal satisfying allocation.  The selection covers the full
    feasibility frontier — grid endpoints, both sides of every regime
    boundary — and fills the remaining budget with evenly spaced
    binding-regime representatives.
    """
    if not goals:
        raise ValueError("need at least one goal to screen")
    t0 = time.perf_counter()
    frames, responses, iterations, solves = allocation_curve(config, workload)
    best_rt = min(responses)  # the most memory can achieve
    points: List[GoalScreenPoint] = []
    for goal_ms in goals:
        found = _minimal_frames(frames, responses, goal_ms)
        if found is None:
            points.append(GoalScreenPoint(
                goal_ms=goal_ms, regime=INFEASIBLE,
                predicted_rt_ms=best_rt, dedicated_bytes_per_node=None,
            ))
            continue
        f_star, rt = found
        regime = SLACK if f_star == 0 else BINDING
        points.append(GoalScreenPoint(
            goal_ms=goal_ms, regime=regime, predicted_rt_ms=rt,
            dedicated_bytes_per_node=f_star * config.page_size,
        ))
    solver_ms = (time.perf_counter() - t0) * 1000.0

    budget = _budget(len(points))
    mandatory: List[int] = [0, len(points) - 1]
    for i in range(1, len(points)):
        if points[i].regime != points[i - 1].regime:
            mandatory.extend((i - 1, i))
    mandatory = sorted(set(mandatory))

    binding = [
        i for i, p in enumerate(points)
        if p.regime == BINDING and i not in set(mandatory)
    ]
    remaining = budget - len(mandatory)
    fill: List[int] = []
    if remaining > 0 and binding:
        take = min(remaining, len(binding))
        stride = len(binding) / take
        fill = [binding[int(k * stride)] for k in range(take)]
    selected = sorted(set(mandatory + fill))

    return PrescreenReport(
        points=points, selected=selected, solver_ms=solver_ms,
        solver_iterations=iterations, solves=solves, budget=budget,
    )


# -- two-class goal pairs ---------------------------------------------


@dataclass
class GoalPairScreenPoint:
    """Analytic verdict for one (goal k1, goal k2) pair."""

    goal1_ms: float
    goal2_ms: float
    feasible: bool
    #: Predicted (R1, R2) at the least-memory feasible split, or at the
    #: closest split for infeasible pairs.
    predicted_rt_ms: Tuple[float, float]
    #: (class-1 bytes, class-2 bytes) per node of that split.
    dedicated_bytes_per_node: Optional[Tuple[int, int]]


@dataclass
class PairPrescreenReport:
    """Result of one two-class pre-screening pass."""

    points: List[GoalPairScreenPoint]
    selected: List[int]
    solver_ms: float
    solver_iterations: int
    solves: int
    budget: int
    #: Grid shape (goals along k1, goals along k2).
    shape: Tuple[int, int] = (0, 0)

    @property
    def grid_size(self) -> int:
        """Number of goal pairs classified."""
        return len(self.points)

    @property
    def frontier_size(self) -> int:
        """Number of goal pairs selected for simulation."""
        return len(self.selected)

    def selected_pairs(self) -> List[Tuple[float, float]]:
        """The selected ``(goal1, goal2)`` pairs, in grid order."""
        return [
            (self.points[i].goal1_ms, self.points[i].goal2_ms)
            for i in self.selected
        ]

    def trace_fields(self) -> Dict:
        """The record body for the ``prescreen`` telemetry kind."""
        feasible = sum(1 for p in self.points if p.feasible)
        return dict(
            grid=self.grid_size,
            frontier=self.frontier_size,
            solver_iterations=self.solver_iterations,
            solves=self.solves,
            ms=round(self.solver_ms, 3),
            budget=self.budget,
            feasible=feasible,
            infeasible=self.grid_size - feasible,
        )


def _split_grid(cap: int) -> List[Tuple[int, int]]:
    """Candidate (f1, f2) dedicated-frame splits with f1 + f2 <= cap."""
    steps = sorted({round(i * cap / (SPLITS - 1)) for i in range(SPLITS)})
    return [
        (f1, f2) for f1 in steps for f2 in steps if f1 + f2 <= cap
    ]


def prescreen_goal_pairs(
    config: SystemConfig,
    workload: WorkloadSpec,
    goal_pairs: Sequence[Tuple[float, float]],
) -> PairPrescreenReport:
    """Screen (goal k1, goal k2) pairs against the allocation-split grid.

    The goal-independent part — (R1, R2) at every (f1, f2) split of the
    per-node memory — is computed once (``O(SPLITS^2)`` MVA solves);
    each pair is then classified by table lookup: feasible iff *some*
    split satisfies both goals.  Selected for simulation: every pair
    adjacent (in the pair grid) to a feasibility flip, budget-capped,
    which is exactly the feasibility frontier of the goal plane.
    """
    if not goal_pairs:
        raise ValueError("need at least one goal pair to screen")
    c1, c2 = GOAL_CLASSES
    t0 = time.perf_counter()
    cap = config.buffer_pages_per_node
    page = config.page_size
    table: List[Tuple[int, int, float, float]] = []
    iterations = 0
    splits_list = _split_grid(cap)
    for f1, f2 in splits_list:
        prediction = predict_response(
            config, workload,
            allocation={c1: f1 * page, c2: f2 * page},
            method=METHOD,
        )
        iterations += prediction.iterations
        table.append((
            f1, f2,
            prediction.response_of(c1), prediction.response_of(c2),
        ))

    points: List[GoalPairScreenPoint] = []
    for g1, g2 in goal_pairs:
        feasible = [
            row for row in table if row[2] <= g1 and row[3] <= g2
        ]
        if feasible:
            # Least total memory among satisfying splits.
            f1, f2, r1, r2 = min(feasible, key=lambda r: r[0] + r[1])
            points.append(GoalPairScreenPoint(
                goal1_ms=g1, goal2_ms=g2, feasible=True,
                predicted_rt_ms=(r1, r2),
                dedicated_bytes_per_node=(f1 * page, f2 * page),
            ))
        else:
            # Closest miss: smallest combined goal overshoot.
            f1, f2, r1, r2 = min(
                table,
                key=lambda r: max(r[2] - g1, 0.0) + max(r[3] - g2, 0.0),
            )
            points.append(GoalPairScreenPoint(
                goal1_ms=g1, goal2_ms=g2, feasible=False,
                predicted_rt_ms=(r1, r2),
                dedicated_bytes_per_node=None,
            ))
    solver_ms = (time.perf_counter() - t0) * 1000.0

    # Frontier: pairs whose feasibility differs from a neighbor in
    # either goal dimension (the pair list is a row-major grid when
    # produced by pair_grid(); for arbitrary lists, fall back to
    # index adjacency).
    n1 = len({p.goal1_ms for p in points})
    n2 = len({p.goal2_ms for p in points})
    grid_shaped = n1 * n2 == len(points)
    flips: List[int] = []
    if grid_shaped:
        for i, p in enumerate(points):
            row, col = divmod(i, n2)
            for j in (i - n2, i + n2, i - 1, i + 1):
                if j < 0 or j >= len(points):
                    continue
                jr, jc = divmod(j, n2)
                if abs(jr - row) + abs(jc - col) != 1:
                    continue
                if points[j].feasible != p.feasible:
                    flips.append(i)
                    break
    else:
        for i in range(1, len(points)):
            if points[i].feasible != points[i - 1].feasible:
                flips.extend((i - 1, i))
    budget = _budget(len(points))
    mandatory = sorted(set(flips + [0, len(points) - 1]))
    if len(mandatory) > budget:
        stride = len(mandatory) / budget
        mandatory = [mandatory[int(k * stride)] for k in range(budget)]
    selected = sorted(set(mandatory))

    return PairPrescreenReport(
        points=points, selected=selected, solver_ms=solver_ms,
        solver_iterations=iterations, solves=len(splits_list),
        budget=budget, shape=(n1, n2),
    )


def pair_grid(
    range1: Tuple[float, float],
    range2: Tuple[float, float],
    points: int,
) -> List[Tuple[float, float]]:
    """A ~sqrt(points) x sqrt(points) row-major (goal1, goal2) grid.

    Pairs violating the §7.4 ordering constraint (``goal1 < goal2``)
    are kept in the grid for frontier geometry but marked by callers
    as unsimulatable; this helper simply enumerates the box.
    """
    if points < 1:
        raise ValueError("need at least one grid point")
    side = max(2, round(points ** 0.5))

    def axis(lo: float, hi: float) -> List[float]:
        if side == 1:
            return [0.5 * (lo + hi)]
        return [lo + i * (hi - lo) / (side - 1) for i in range(side)]

    return [(g1, g2) for g1 in axis(*range1) for g2 in axis(*range2)]
