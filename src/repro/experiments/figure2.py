"""Figure 2 — the base experiment (§7.2).

Two classes (one goal, one no-goal), 4 page accesses per operation,
disjoint page sets, skew 0.  The controller runs for ~80 observation
intervals while the response time goal is re-randomized after every
four satisfied intervals (so the figure exercises many different
partitions, as in the paper).  The output is the triple of series the
paper plots: observed response time, response time goal, and total
systemwide dedicated cache.

Run it with ``python -m repro figure2``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.config import SystemConfig
from repro.experiments.calibration import GoalRange, calibrate_goal_range
from repro.experiments.convergence import (
    MIN_GOAL_CHANGE,
    SATISFIED_BEFORE_CHANGE,
    _next_goal,
)
from repro.experiments.forkserver import WarmDelta, WarmGroup, run_sweep
from repro.experiments.parallel import derive_replicate_seed
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import (
    DEFAULT_WARMUP_MS,
    Simulation,
    default_workload,
)


@dataclass
class Figure2Data:
    """The three series of Figure 2, indexed by observation interval."""

    intervals: List[int] = field(default_factory=list)
    observed_rt: List[float] = field(default_factory=list)
    goal: List[float] = field(default_factory=list)
    dedicated_bytes: List[float] = field(default_factory=list)
    satisfied: List[bool] = field(default_factory=list)
    goal_range: Optional[GoalRange] = None
    #: Streaming p95 of the goal class's response times over the
    #: measured horizon (P² estimate; None before any completion).
    p95_rt_ms: Optional[float] = None
    #: Extended {quantile: response_ms} (p50/p90/p95/p99) — populated
    #: only when telemetry was attached (the existing flag), None
    #: otherwise so untraced outputs are unchanged.
    quantiles: Optional[Dict[float, float]] = None

    def satisfaction_ratio(self) -> float:
        """Fraction of intervals in which the goal was satisfied."""
        if not self.satisfied:
            return 0.0
        return sum(self.satisfied) / len(self.satisfied)

    def quantiles_text(self) -> Optional[str]:
        """One-line p50/p90/p95/p99 summary, or None when untracked."""
        if not self.quantiles:
            return None
        parts = ", ".join(
            f"p{q * 100:g}={ms:.2f}"
            for q, ms in sorted(self.quantiles.items())
        )
        return f"response time quantiles (ms): {parts}"

    def rt_tracks_memory(self) -> float:
        """Correlation between RT and dedicated memory (expected < 0)."""
        n = len(self.observed_rt)
        if n < 3:
            return 0.0
        xs, ys = self.dedicated_bytes, self.observed_rt
        mx = sum(xs) / n
        my = sum(ys) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        vx = sum((x - mx) ** 2 for x in xs)
        vy = sum((y - my) ** 2 for y in ys)
        if vx <= 0 or vy <= 0:
            return 0.0
        return cov / (vx * vy) ** 0.5

    def to_text(self) -> str:
        """Figure data as an aligned text table."""
        return format_series(
            ["interval", "observed_rt_ms", "goal_ms", "dedicated_bytes"],
            [self.intervals, self.observed_rt, self.goal,
             self.dedicated_bytes],
            title="Figure 2: response time, goal, and dedicated memory",
        )

    def to_chart(self) -> str:
        """The figure itself: RT vs. goal, plus the dedicated memory."""
        from repro.experiments.plotting import ascii_chart, overlay_chart

        top = overlay_chart(
            self.observed_rt, self.goal,
            label="observed response time (*) vs goal (o), ms",
        )
        bottom = ascii_chart(
            self.dedicated_bytes,
            height=8,
            label="total dedicated cache, bytes",
        )
        return top + "\n\n" + bottom

    def save_csv(self, path: str) -> None:
        """Export the three series as CSV."""
        from repro.experiments.plotting import series_to_csv

        series_to_csv(
            ["interval", "observed_rt_ms", "goal_ms", "dedicated_bytes"],
            [self.intervals, self.observed_rt, self.goal,
             self.dedicated_bytes],
            path=path,
        )


def run_figure2(
    seed: int = 1,
    intervals: int = 80,
    config: Optional[SystemConfig] = None,
    goal_range: Optional[GoalRange] = None,
    warmup_ms: float = DEFAULT_WARMUP_MS,
    jobs: int = 1,
    faults=None,
    telemetry=None,
) -> Figure2Data:
    """Run the base experiment and return the Figure 2 series.

    ``jobs`` parallelizes the goal-range calibration runs when no
    ``goal_range`` is given.  ``faults`` (a spec string or
    :class:`~repro.faults.FaultSchedule`) injects the given fault
    schedule into the run.  ``telemetry`` (a directory path) arms the
    telemetry pipeline and exports its artifacts there after the run.
    """
    config = config if config is not None else SystemConfig()
    workload = default_workload(config)
    if goal_range is None:
        goal_range = calibrate_goal_range(
            workload, class_id=1, config=config, seed=seed, jobs=jobs
        )
    workload = workload.with_goal(
        1, 0.5 * (goal_range.goal_min_ms + goal_range.goal_max_ms)
    )
    sim = Simulation(
        config=config, workload=workload, seed=seed, warmup_ms=warmup_ms,
        faults=faults, telemetry=telemetry,
    )
    rng = sim.cluster.rng.stream("figure2/goals")
    state = {"satisfied_run": 0}

    def goal_changer(controller, interval_index):
        if controller.series[1].satisfied[-1]:
            state["satisfied_run"] += 1
        if state["satisfied_run"] >= SATISFIED_BEFORE_CHANGE:
            state["satisfied_run"] = 0
            new_goal = _next_goal(
                rng, goal_range, controller.goal_of(1), MIN_GOAL_CHANGE
            )
            controller.set_goal(1, new_goal)

    sim.controller.on_interval(goal_changer)
    sim.run(intervals=intervals)

    series = sim.controller.series[1]
    data = Figure2Data(goal_range=goal_range)
    n = len(series.goal.values)
    for i in range(n):
        data.intervals.append(i + 1)
        data.observed_rt.append(
            series.observed_rt.values[i]
            if i < len(series.observed_rt.values) else float("nan")
        )
        data.goal.append(series.goal.values[i])
        data.dedicated_bytes.append(series.dedicated_bytes.values[i])
        data.satisfied.append(series.satisfied[i])
    if sim.controller.class_p95[1].count:
        data.p95_rt_ms = sim.controller.p95_response_ms(1)
    data.quantiles = sim.controller.response_quantiles(1)
    sim.export_telemetry()
    return data


# -- the goal sweep ---------------------------------------------------


@dataclass
class GoalPoint:
    """Steady-state outcome of the base experiment at one fixed goal."""

    goal_ms: float
    seed: int
    observed_rt: List[Optional[float]] = field(default_factory=list)
    goal: List[float] = field(default_factory=list)
    dedicated_bytes: List[float] = field(default_factory=list)
    satisfied: List[bool] = field(default_factory=list)
    #: Streaming p95 of the goal class's response times (P² estimate).
    p95_rt_ms: float = 0.0
    #: Extended {quantile: response_ms}; None when the point ran
    #: without telemetry (keeps untraced sweep tables unchanged).
    quantiles: Optional[Dict[float, float]] = None

    def satisfaction_ratio(self) -> float:
        """Fraction of intervals in which the goal was satisfied."""
        if not self.satisfied:
            return 0.0
        return sum(self.satisfied) / len(self.satisfied)

    def mean_observed_rt(self) -> float:
        """Mean observed RT over intervals with completions."""
        values = [rt for rt in self.observed_rt if rt is not None]
        return sum(values) / len(values) if values else 0.0

    def mean_dedicated_bytes(self) -> float:
        """Mean systemwide dedicated cache over the run."""
        if not self.dedicated_bytes:
            return 0.0
        return sum(self.dedicated_bytes) / len(self.dedicated_bytes)


@dataclass
class GoalSweepData:
    """A sweep of the base experiment over fixed response time goals."""

    goal_range: Optional[GoalRange]
    runner: str
    points: List[GoalPoint] = field(default_factory=list)
    #: The analytic pre-screening report when ``prescreen`` was used
    #: (a :class:`repro.analytic.frontier.PrescreenReport`), else None.
    prescreen: Optional[object] = None

    def to_text(self) -> str:
        """Render the sweep as an aligned text table.

        When points carry extended quantiles (telemetry-attached
        sweeps) the table grows p50/p90/p99 columns; untraced sweeps
        keep the original six columns.
        """
        extended = any(p.quantiles for p in self.points)
        rows = []
        for p in self.points:
            row = [
                p.seed,
                round(p.goal_ms, 3),
                round(p.satisfaction_ratio(), 3),
                round(p.mean_observed_rt(), 3),
                round(p.p95_rt_ms, 3),
            ]
            if extended:
                q = p.quantiles or {}
                row.extend(
                    round(q[key], 3) if key in q else "-"
                    for key in (0.5, 0.9, 0.99)
                )
            row.append(int(p.mean_dedicated_bytes()))
            rows.append(row)
        header = ["seed", "goal_ms", "satisfied", "mean_rt_ms",
                  "p95_rt_ms"]
        if extended:
            header += ["p50_rt_ms", "p90_rt_ms", "p99_rt_ms"]
        header.append("mean dedicated (B)")
        return format_table(
            header,
            rows,
            title=f"Figure 2 goal sweep ({self.runner} runner)",
        )


def _summarize_goal_point(sim: Simulation, intervals: int) -> GoalPoint:
    """Run the measured horizon and extract one sweep point's series."""
    sim.run(intervals=intervals)
    series = sim.controller.series[1]
    point = GoalPoint(
        goal_ms=sim.controller.goal_of(1), seed=sim.cluster.rng.seed,
        p95_rt_ms=sim.controller.p95_response_ms(1),
        quantiles=sim.controller.response_quantiles(1),
    )
    observed = series.observed_rt.values
    for i in range(len(series.goal.values)):
        point.observed_rt.append(
            observed[i] if i < len(observed) else None
        )
        point.goal.append(series.goal.values[i])
        point.dedicated_bytes.append(series.dedicated_bytes.values[i])
        point.satisfied.append(series.satisfied[i])
    sim.export_telemetry()
    return point


def _build_sweep_sim(
    config: SystemConfig,
    base_goal_ms: float,
    seed: int,
    warmup_ms: float,
) -> Simulation:
    """Parent simulation of one warm group (module-level: picklable)."""
    workload = default_workload(config, goal_ms=base_goal_ms)
    return Simulation(
        config=config, workload=workload, seed=seed, warmup_ms=warmup_ms
    )


def sweep_goals(goal_range: GoalRange, points: int) -> List[float]:
    """``points`` goals evenly spaced across the calibrated range."""
    if points < 1:
        raise ValueError("need at least one sweep point")
    low, high = goal_range.goal_min_ms, goal_range.goal_max_ms
    if points == 1:
        return [0.5 * (low + high)]
    step = (high - low) / (points - 1)
    return [low + i * step for i in range(points)]


#: Seeded replicates of the goal sweep; each is one warm group.
SWEEP_REPLICATES = 1


def run_goal_sweep(
    goals: Optional[Sequence[float]] = None,
    points: int = 8,
    seed: int = 1,
    intervals: int = 40,
    config: Optional[SystemConfig] = None,
    goal_range: Optional[GoalRange] = None,
    warmup_ms: float = DEFAULT_WARMUP_MS,
    jobs: int = 1,
    telemetry: Optional[str] = None,
    prescreen: Optional[int] = None,
) -> GoalSweepData:
    """Sweep the base experiment over fixed response time goals.

    Every sweep point runs the §7.2 setup to ``intervals`` observation
    intervals under one *fixed* goal.  The goal only reaches the
    coordinator — never the workload or the caches — so each replicate
    is one warm group of :func:`repro.experiments.forkserver.run_sweep`:
    it warms **once** and forks the points from the warmed image.
    Results are bit-identical to the cold per-point path that a
    platform without ``os.fork`` runs.
    ``goals`` defaults to ``points`` goals evenly spaced across the
    calibrated range.
    ``telemetry`` (a directory path) exports per-point telemetry to
    ``<dir>/rep<r>-goal<g>/`` and a merged trace at the top level; the
    point directories are named by replicate and goal index, so the fork
    and cold paths produce identical artifact trees.

    ``prescreen`` arms the analytic fast path
    (:func:`repro.analytic.frontier.prescreen_goals`): the goal grid is
    densified to ``prescreen`` points (when ``goals`` is not given),
    classified analytically in milliseconds, and only the feasibility
    frontier — regime boundaries, endpoints, binding-regime
    representatives — is simulated.  Each sweep point is an independent
    simulation keyed by (config, seed, goal), so the simulated subset
    is bit-identical to the same points of an unscreened sweep.  The
    report lands on :attr:`GoalSweepData.prescreen` and, with
    ``telemetry``, as a ``prescreen`` record in the merged trace.
    """
    config = config if config is not None else SystemConfig()
    if goal_range is None:
        goal_range = calibrate_goal_range(
            default_workload(config), class_id=1, config=config,
            seed=seed, jobs=jobs,
        )
    if goals is None:
        goals = sweep_goals(
            goal_range, prescreen if prescreen else points
        )
    goals = list(goals)
    prescreen_report = None
    records = []
    if prescreen:
        from repro.analytic.frontier import prescreen_goals

        prescreen_report = prescreen_goals(
            config, default_workload(config), goals
        )
        goals = prescreen_report.selected_goals()
        records.append({
            "kind": "prescreen", "t": 0.0,
            **prescreen_report.trace_fields(),
        })
    groups = [
        WarmGroup(
            build=functools.partial(
                _build_sweep_sim, config, goals[0],
                derive_replicate_seed(seed, rep), warmup_ms,
            ),
            deltas=[
                WarmDelta.for_goals({1: goal_ms}, label=f"rep{rep}-goal{g}")
                for g, goal_ms in enumerate(goals)
            ],
            measure=functools.partial(
                _summarize_goal_point, intervals=intervals
            ),
        )
        for rep in range(SWEEP_REPLICATES)
    ]
    mode, results = run_sweep(groups, jobs, telemetry, records)
    return GoalSweepData(
        goal_range=goal_range, runner=mode,
        points=[point for group in results for point in group],
        prescreen=prescreen_report,
    )
