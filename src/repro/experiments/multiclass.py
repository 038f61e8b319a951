"""Section 7.4 — multiple goal classes, disjoint and shared page sets.

Setup per the paper: two goal classes k1, k2 with
``RT_goal(k1) < RT_goal(k2)`` plus the no-goal class, and **twice** the
cache memory per node.

(a) With *disjoint* page sets, memory dedicated to one class does not
    influence the other, so the convergence speed matches the base
    experiment (Table 2).

(b) With increasing *data sharing* between the classes, class k2
    profits from the dedicated buffer of class k1 (whose goal is
    tighter, hence its buffer larger): the memory dedicated to k2
    shrinks gradually and eventually disappears, while k2 still meets
    its goal purely through k1's buffers — the Example 2 effect of §3.

Run it with ``python -m repro multiclass``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import NodeParameters, SystemConfig
from repro.experiments.forkserver import WarmDelta, WarmGroup, run_sweep
from repro.experiments.reporting import format_table
from repro.experiments.runner import DEFAULT_WARMUP_MS, Simulation
from repro.workload.spec import (
    ClassSpec,
    WorkloadSpec,
    partition_pages,
    shared_pages,
)


def doubled_cache_config(base: Optional[SystemConfig] = None) -> SystemConfig:
    """The §7.4 system: twice the cache memory at each node."""
    base = base if base is not None else SystemConfig()
    return replace(
        base, node=NodeParameters(buffer_bytes=2 * base.node.buffer_bytes)
    )


def multiclass_workload(
    config: SystemConfig,
    goal1_ms: float,
    goal2_ms: float,
    sharing: float = 0.0,
    arrival_rate_per_node: float = 0.02,
) -> WorkloadSpec:
    """Two goal classes + no-goal class; k2 shares ``sharing`` of k1's pages."""
    if goal1_ms >= goal2_ms:
        raise ValueError("the paper requires goal(k1) < goal(k2)")
    set1, set2, set0 = partition_pages(config.num_pages, 3)
    pages2 = shared_pages(set1, set2, sharing)
    common = dict(
        pages_per_op=4,
        arrival_rate_per_node=arrival_rate_per_node,
    )
    return WorkloadSpec(
        classes=[
            ClassSpec(class_id=0, goal_ms=None, pages=set0,
                      name="no-goal", **common),
            ClassSpec(class_id=1, goal_ms=goal1_ms, pages=set1,
                      name="k1", **common),
            ClassSpec(class_id=2, goal_ms=goal2_ms, pages=pages2,
                      name="k2", **common),
        ]
    )


@dataclass
class SharingPoint:
    """Steady-state outcome for one sharing fraction."""

    sharing: float
    dedicated_k1_bytes: float
    dedicated_k2_bytes: float
    satisfied_k1: float
    satisfied_k2: float
    observed_rt_k1: float
    observed_rt_k2: float
    #: Fraction of tail intervals with RT <= goal (one-sided — the
    #: §7.4 sense of "exceeds its goal": being *faster* counts).
    goal_met_k1: float = 0.0
    goal_met_k2: float = 0.0
    #: Streaming p95 response times over the measured horizon (P²).
    p95_rt_k1: float = 0.0
    p95_rt_k2: float = 0.0
    #: Extended {quantile: response_ms} per class; None when the point
    #: ran without telemetry (keeps untraced tables unchanged).
    quantiles_k1: Optional[Dict[float, float]] = None
    quantiles_k2: Optional[Dict[float, float]] = None


@dataclass
class MulticlassResult:
    """The §7.4 sharing sweep."""

    points: List[SharingPoint] = field(default_factory=list)

    def k2_dedicated_decreases(self) -> bool:
        """Does k2's dedicated memory shrink as sharing rises?"""
        if len(self.points) < 2:
            return False
        return (
            self.points[-1].dedicated_k2_bytes
            < self.points[0].dedicated_k2_bytes
        )

    def to_text(self) -> str:
        """Render the sweep as an aligned text table.

        Telemetry-attached runs carry extended quantiles and grow
        p99 columns per class; untraced runs keep the original table.
        """
        extended = any(
            p.quantiles_k1 or p.quantiles_k2 for p in self.points
        )
        rows = []
        for p in self.points:
            row = [
                p.sharing,
                int(p.dedicated_k1_bytes),
                int(p.dedicated_k2_bytes),
                p.goal_met_k1,
                p.goal_met_k2,
                p.observed_rt_k1,
                p.observed_rt_k2,
                p.p95_rt_k1,
                p.p95_rt_k2,
            ]
            if extended:
                for q in (p.quantiles_k1, p.quantiles_k2):
                    row.append(
                        round(q[0.99], 3) if q and 0.99 in q else "-"
                    )
            rows.append(row)
        header = ["sharing", "dedicated k1 (B)", "dedicated k2 (B)",
                  "goal met k1", "goal met k2", "rt k1 (ms)",
                  "rt k2 (ms)", "p95 k1 (ms)", "p95 k2 (ms)"]
        if extended:
            header += ["p99 k1 (ms)", "p99 k2 (ms)"]
        return format_table(
            header,
            rows,
            title="Section 7.4: data sharing between goal classes",
        )


def sharing_group(
    sharing: float,
    goal1_ms: float = 4.0,
    goal2_ms: float = 10.0,
    seed: int = 7,
    intervals: int = 60,
    tail: int = 20,
    config: Optional[SystemConfig] = None,
    warmup_ms: float = DEFAULT_WARMUP_MS,
) -> WarmGroup:
    """One sharing fraction as a one-point warm group.

    The sharing fraction reshapes k2's page set, which feeds the
    workload generator during warm-up, so every fraction needs its own
    build.  The point is labelled ``share<sharing>``.
    """
    config = doubled_cache_config() if config is None else config
    return WarmGroup(
        build=functools.partial(
            _build_goal_pair_sim, config, goal1_ms, goal2_ms, sharing,
            seed, warmup_ms,
        ),
        deltas=[WarmDelta(label=f"share{sharing:g}")],
        measure=functools.partial(
            _summarize_sharing_point, sharing=sharing,
            intervals=intervals, tail=tail,
        ),
    )


def run_sharing_point(
    sharing: float, telemetry: Optional[str] = None, **kwargs
) -> SharingPoint:
    """Run one sharing fraction to steady state and summarize the tail.

    ``kwargs`` are those of :func:`sharing_group`; ``telemetry`` (a
    directory path) exports the run's artifacts there.
    """
    group = sharing_group(sharing, **kwargs)
    sim = group.build()
    sim.set_telemetry(telemetry)
    return group.measure(sim)


def _summarize_sharing_point(
    sim: Simulation, sharing: float, intervals: int, tail: int
) -> SharingPoint:
    """Run the measured horizon and summarize the tail of one point."""
    sim.run(intervals=intervals)

    def tail_mean(values: Sequence[float]) -> float:
        window = list(values)[-tail:]
        return sum(window) / len(window) if window else 0.0

    s1 = sim.controller.series[1]
    s2 = sim.controller.series[2]
    goal1_ms = sim.controller.goal_of(1)
    goal2_ms = sim.controller.goal_of(2)

    def goal_met(series, goal_ms):
        flags = [
            1.0 if rt <= goal_ms * 1.1 else 0.0
            for rt in series.observed_rt.values
        ]
        return tail_mean(flags)

    point = SharingPoint(
        sharing=sharing,
        dedicated_k1_bytes=tail_mean(s1.dedicated_bytes.values),
        dedicated_k2_bytes=tail_mean(s2.dedicated_bytes.values),
        satisfied_k1=tail_mean([float(x) for x in s1.satisfied]),
        satisfied_k2=tail_mean([float(x) for x in s2.satisfied]),
        observed_rt_k1=tail_mean(s1.observed_rt.values),
        observed_rt_k2=tail_mean(s2.observed_rt.values),
        goal_met_k1=goal_met(s1, goal1_ms),
        goal_met_k2=goal_met(s2, goal2_ms),
        p95_rt_k1=sim.controller.p95_response_ms(1),
        p95_rt_k2=sim.controller.p95_response_ms(2),
        quantiles_k1=sim.controller.response_quantiles(1),
        quantiles_k2=sim.controller.response_quantiles(2),
    )
    sim.export_telemetry()
    return point


def run_sharing_sweep(
    sharings: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    jobs: int = 1,
    telemetry: Optional[str] = None,
    **kwargs,
) -> MulticlassResult:
    """The full §7.4(b) sweep over sharing fractions.

    Every sharing fraction is its own warm group (see
    :func:`sharing_group`), so no two points share warm state:
    :func:`repro.experiments.forkserver.run_sweep` runs them cold,
    farmed to worker processes by ``jobs``, in ``sharings`` order.
    (Contrast :func:`run_goal_sweep`, whose points fork off one warmed
    image.)
    ``kwargs`` are those of :func:`sharing_group`.
    """
    _, results = run_sweep(
        [sharing_group(sharing, **kwargs) for sharing in sharings],
        jobs, telemetry,
    )
    return MulticlassResult(points=[point for [point] in results])


# -- the goal-pair sweep ----------------------------------------------


@dataclass
class GoalPairPoint:
    """Steady-state outcome for one (goal k1, goal k2) pair."""

    goal1_ms: float
    goal2_ms: float
    point: SharingPoint

    def to_row(self, extended: bool = False) -> list:
        """The point as one row of the sweep table.

        ``extended`` appends the telemetry-tracked p99 per class
        (``"-"`` for points that ran untracked).
        """
        p = self.point
        row = [
            self.goal1_ms,
            self.goal2_ms,
            int(p.dedicated_k1_bytes),
            int(p.dedicated_k2_bytes),
            p.goal_met_k1,
            p.goal_met_k2,
            p.observed_rt_k1,
            p.observed_rt_k2,
            p.p95_rt_k1,
            p.p95_rt_k2,
        ]
        if extended:
            for q in (p.quantiles_k1, p.quantiles_k2):
                row.append(round(q[0.99], 3) if q and 0.99 in q else "-")
        return row


@dataclass
class MulticlassGoalSweep:
    """A sweep over goal pairs at a fixed sharing fraction."""

    sharing: float
    runner: str
    points: List[GoalPairPoint] = field(default_factory=list)
    #: The analytic pre-screening report when ``prescreen`` was used
    #: (a :class:`repro.analytic.frontier.PairPrescreenReport`).
    prescreen: Optional[object] = None

    def to_text(self) -> str:
        """Render the sweep as an aligned text table.

        Telemetry-attached sweeps grow per-class p99 columns.
        """
        extended = any(
            p.point.quantiles_k1 or p.point.quantiles_k2
            for p in self.points
        )
        header = ["goal k1 (ms)", "goal k2 (ms)", "dedicated k1 (B)",
                  "dedicated k2 (B)", "goal met k1", "goal met k2",
                  "rt k1 (ms)", "rt k2 (ms)", "p95 k1 (ms)",
                  "p95 k2 (ms)"]
        if extended:
            header += ["p99 k1 (ms)", "p99 k2 (ms)"]
        return format_table(
            header,
            [p.to_row(extended) for p in self.points],
            title=(
                f"Section 7.4 goal-pair sweep (sharing "
                f"{self.sharing:.2f}, {self.runner} runner)"
            ),
        )


def _build_goal_pair_sim(
    config: SystemConfig,
    goal1_ms: float,
    goal2_ms: float,
    sharing: float,
    seed: int,
    warmup_ms: float,
) -> Simulation:
    workload = multiclass_workload(config, goal1_ms, goal2_ms,
                                   sharing=sharing)
    return Simulation(
        config=config, workload=workload, seed=seed, warmup_ms=warmup_ms
    )


def _measure_goal_pair(
    sim: Simulation, intervals: int, tail: int
) -> GoalPairPoint:
    point = _summarize_sharing_point(
        sim, sharing=GOAL_SWEEP_SHARING, intervals=intervals, tail=tail
    )
    return GoalPairPoint(
        goal1_ms=sim.controller.goal_of(1),
        goal2_ms=sim.controller.goal_of(2),
        point=point,
    )


#: The goal-pair sweep's default pairs (goal k1, goal k2), in ms.
GOAL_PAIRS = ((3.0, 8.0), (4.0, 10.0), (5.0, 12.0), (6.0, 14.0))

#: The goal-pair sweep runs on disjoint page sets.
GOAL_SWEEP_SHARING = 0.0

#: Trailing intervals of each goal-pair point that its summary averages.
GOAL_SWEEP_TAIL = 20


def run_goal_sweep(
    goal_pairs: Sequence[Tuple[float, float]] = GOAL_PAIRS,
    seed: int = 7,
    intervals: int = 60,
    config: Optional[SystemConfig] = None,
    warmup_ms: float = DEFAULT_WARMUP_MS,
    jobs: int = 1,
    telemetry: Optional[str] = None,
    prescreen: Optional[int] = None,
) -> MulticlassGoalSweep:
    """Sweep the §7.4 system over (goal k1, goal k2) pairs.

    Goals feed only the coordinators, never the warm-up, so the pairs
    form one warm group: :func:`repro.experiments.forkserver.run_sweep`
    warms once and forks the pairs from the warmed image (platforms
    without ``os.fork`` run independent per-pair simulations instead —
    bit-identical results either way).

    ``prescreen`` arms the analytic fast path: the bounding box of
    ``goal_pairs`` is densified to a ~sqrt(prescreen)-per-side grid,
    classified by :func:`repro.analytic.frontier.prescreen_goal_pairs`,
    and only the feasibility frontier of the goal plane is simulated
    (grid pairs violating the §7.4 ordering ``goal1 < goal2`` are
    screened but never simulated).  Each pair is an independent
    simulation keyed by (config, seed, goals), so the simulated subset
    is bit-identical to an unscreened sweep over the same pairs.
    """
    config = doubled_cache_config() if config is None else config
    goal_pairs = [tuple(pair) for pair in goal_pairs]
    for goal1_ms, goal2_ms in goal_pairs:
        if goal1_ms >= goal2_ms:
            raise ValueError("the paper requires goal(k1) < goal(k2)")
    prescreen_report = None
    records = []
    if prescreen:
        from repro.analytic.frontier import pair_grid, prescreen_goal_pairs

        goals1 = [pair[0] for pair in goal_pairs]
        goals2 = [pair[1] for pair in goal_pairs]
        grid = pair_grid(
            (min(goals1), max(goals1)), (min(goals2), max(goals2)),
            prescreen,
        )
        prescreen_report = prescreen_goal_pairs(
            config,
            multiclass_workload(
                config, goal_pairs[0][0], goal_pairs[0][1],
                sharing=GOAL_SWEEP_SHARING,
            ),
            grid,
        )
        goal_pairs = [
            (goal1_ms, goal2_ms)
            for goal1_ms, goal2_ms in prescreen_report.selected_pairs()
            if goal1_ms < goal2_ms
        ]
        if not goal_pairs:
            raise ValueError(
                "prescreening selected no simulatable goal pairs "
                "(all frontier pairs violate goal(k1) < goal(k2))"
            )
        records.append({
            "kind": "prescreen", "t": 0.0,
            **prescreen_report.trace_fields(),
        })
    base1, base2 = goal_pairs[0]
    group = WarmGroup(
        build=functools.partial(
            _build_goal_pair_sim, config, base1, base2, GOAL_SWEEP_SHARING,
            seed, warmup_ms,
        ),
        deltas=[
            WarmDelta.for_goals({1: goal1_ms, 2: goal2_ms}, label=f"pair{g}")
            for g, (goal1_ms, goal2_ms) in enumerate(goal_pairs)
        ],
        measure=functools.partial(
            _measure_goal_pair, intervals=intervals, tail=GOAL_SWEEP_TAIL,
        ),
    )
    mode, [points] = run_sweep([group], jobs, telemetry, records)
    return MulticlassGoalSweep(
        sharing=GOAL_SWEEP_SHARING, runner=mode, points=points,
        prescreen=prescreen_report,
    )
