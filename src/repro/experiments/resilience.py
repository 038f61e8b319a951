"""Resilience under injected faults: recovery of the feedback loop.

The paper's feedback loop (§5) is advertised as self-correcting: every
observation interval re-measures the system, so any disturbance —
lost reports, stale allocations, a crashed node with a cold cache —
is eventually washed out by new measure points.  This experiment makes
that claim measurable.  A seeded fault schedule (see
:mod:`repro.faults`) is injected into the base experiment and two
recovery metrics are computed per fault:

``time-to-goal-reattainment``
    Observation intervals from the fault until the goal class first
    re-enters its tolerance band (a satisfied interval with an actual
    observation).

``goal-violation area``
    The integral of ``max(0, observed_rt - goal)`` over the recovery
    window, in ms·s — how *badly* and for how long the goal was missed,
    not just whether it was.

Replication follows the repository convention: replicate ``i`` runs
with ``derive_replicate_seed(base, i)`` and replicates are farmed out
by the sweep executor (:func:`repro.experiments.forkserver.run_sweep`),
so ``--jobs N`` is bit-identical to ``--jobs 1``.

Run it with ``python -m repro resilience``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import NodeParameters, SystemConfig
from repro.experiments.forkserver import WarmDelta, WarmGroup, run_sweep
from repro.experiments.parallel import derive_replicate_seed
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    RESILIENCE_WARMUP_MS,
    Simulation,
    default_workload,
)

#: Class id of the goal class in the base workload.
GOAL_CLASS = 1


def quick_config() -> SystemConfig:
    """A scaled-down system (3 nodes, 400 pages, 256 KB buffers).

    Mirrors the test suite's fast configuration: ~8x smaller than the
    §7.1 environment with similar cache/database ratios, so recovery
    behaviour transfers while CI smoke runs stay cheap.
    """
    return SystemConfig(
        num_nodes=3,
        num_pages=400,
        node=NodeParameters(buffer_bytes=256 * 1024),
        observation_interval_ms=2000.0,
    )


def default_fault_spec(
    intervals: int, interval_ms: float, warmup_ms: float = 0.0
) -> str:
    """The default resilience schedule, scaled to the run horizon.

    Two node crashes (at ~25 % and ~70 % of the horizon, so even short
    smoke runs leave room to re-converge after each), one
    control-message loss episode and one disk slowdown in between.
    Fault times are absolute simulation times, hence the warm-up
    offset.  The second crash targets ``node=any`` to exercise the
    seeded node draw.
    """
    if intervals < 8:
        raise ValueError("the default schedule needs >= 8 intervals")
    horizon = intervals * interval_ms
    restart = interval_ms  # one interval of downtime
    episode = 3.0 * interval_ms

    def at(fraction: float) -> float:
        return warmup_ms + fraction * horizon

    return (
        f"crash@{at(0.25):.0f}:node=0:restart={restart:.0f};"
        f"netloss@{at(0.45):.0f}:dur={episode:.0f}:p=0.3;"
        f"diskslow@{at(0.55):.0f}:node=0:dur={episode:.0f}:factor=4;"
        f"crash@{at(0.70):.0f}:node=any:restart={restart:.0f}"
    )


def control_fault_spec(
    intervals: int, interval_ms: float, warmup_ms: float = 0.0
) -> str:
    """Control-plane resilience schedule, scaled to the run horizon.

    The coordinator crashes twice (at ~20 % and ~75 % of the horizon),
    node 0 is partitioned off the control network long enough to enter
    degraded mode (~40 %), and a node crash lands at ~60 % so node- and
    control-plane recovery interleave.  The first coordinator outage
    lasts three observation intervals (state wipe + epoch bump + full
    re-learn); the partition lasts five so the degraded-mode state
    machine is exercised end to end with the default thresholds.
    """
    if intervals < 16:
        raise ValueError("the control-plane schedule needs >= 16 intervals")
    horizon = intervals * interval_ms
    restart = interval_ms

    def at(fraction: float) -> float:
        return warmup_ms + fraction * horizon

    return (
        f"coordcrash@{at(0.20):.0f}:dur={3 * interval_ms:.0f};"
        f"partition@{at(0.40):.0f}:nodes=0:dur={5 * interval_ms:.0f};"
        f"crash@{at(0.60):.0f}:node=any:restart={restart:.0f};"
        f"coordcrash@{at(0.75):.0f}:dur={2 * interval_ms:.0f}"
    )


@dataclass(frozen=True)
class FaultOutcome:
    """Recovery metrics of one injected fault."""

    kind: str
    time_ms: float
    node: Optional[int]
    duration_ms: float
    #: Intervals from the fault to the first satisfied observation,
    #: or None when the run ended before the goal was reattained.
    reattained_after: Optional[int]
    #: Goal-violation area over the recovery window, in ms·s.
    violation_area: float
    #: Partitioned node set (empty for other kinds).
    nodes: Tuple[int, ...] = ()


@dataclass
class ResilienceReplicate:
    """One seeded run under the fault schedule."""

    seed: int
    #: Response time goal of the run (recorded for goal sweeps).
    goal_ms: float = 0.0
    intervals: List[int] = field(default_factory=list)
    observed_rt: List[float] = field(default_factory=list)
    goal: List[float] = field(default_factory=list)
    satisfied: List[bool] = field(default_factory=list)
    faults: List[FaultOutcome] = field(default_factory=list)
    #: Failure-aware loop counters (see GoalOrientedController).
    reports_dropped: int = 0
    allocation_retries: int = 0
    allocation_unconfirmed: int = 0
    invalidated_points: int = 0
    #: Control-plane fault counters (all zero unless coordcrash or
    #: partition clauses were scheduled).
    coordinator_crashes: int = 0
    reports_unreachable: int = 0
    allocations_deferred: int = 0
    stale_allocations_rejected: int = 0
    degraded_entries: int = 0
    degraded_exits: int = 0
    reconciles: int = 0
    reconcile_repairs: int = 0
    final_epoch: int = 0
    #: Whole-run goal-violation area, in ms·s.
    total_violation_area: float = 0.0
    #: Streaming p95 of the goal class's response times (P² estimate).
    p95_rt_ms: float = 0.0
    #: Extended {quantile: response_ms}; None when the replicate ran
    #: without telemetry (keeps untraced reports unchanged).
    quantiles: Optional[Dict[float, float]] = None


@dataclass
class ResilienceData:
    """Aggregated resilience results across replicates."""

    fault_spec: str
    goal_ms: float
    interval_ms: float
    replicates: List[ResilienceReplicate] = field(default_factory=list)

    # -- summary metrics ---------------------------------------------

    def crash_outcomes(self) -> List[FaultOutcome]:
        """All crash outcomes across replicates."""
        return [
            f for rep in self.replicates for f in rep.faults
            if f.kind == "crash"
        ]

    def all_crashes_reattained(self) -> bool:
        """True when the goal was reattained after every crash."""
        crashes = self.crash_outcomes()
        return bool(crashes) and all(
            f.reattained_after is not None for f in crashes
        )

    def mean_reattainment_intervals(self) -> Optional[float]:
        """Mean time-to-goal-reattainment over recovered crashes."""
        recovered = [
            f.reattained_after for f in self.crash_outcomes()
            if f.reattained_after is not None
        ]
        if not recovered:
            return None
        return sum(recovered) / len(recovered)

    def outcomes_by_kind(self) -> Dict[str, List[FaultOutcome]]:
        """All fault outcomes across replicates, grouped by kind."""
        by_kind: Dict[str, List[FaultOutcome]] = {}
        for rep in self.replicates:
            for f in rep.faults:
                by_kind.setdefault(f.kind, []).append(f)
        return by_kind

    def control_outcomes(self) -> List[FaultOutcome]:
        """Coordinator-crash and partition outcomes across replicates."""
        return [
            f for rep in self.replicates for f in rep.faults
            if f.kind in ("coordcrash", "partition")
        ]

    def all_control_faults_reattained(self) -> bool:
        """True when the goal was reattained after every control-plane
        fault (coordinator crash or partition)."""
        control = self.control_outcomes()
        return bool(control) and all(
            f.reattained_after is not None for f in control
        )

    def mean_violation_area(self) -> float:
        """Mean whole-run goal-violation area per replicate (ms·s)."""
        if not self.replicates:
            return 0.0
        return sum(
            rep.total_violation_area for rep in self.replicates
        ) / len(self.replicates)

    def mean_p95_rt_ms(self) -> float:
        """Mean per-replicate p95 response time of the goal class."""
        if not self.replicates:
            return 0.0
        return sum(
            rep.p95_rt_ms for rep in self.replicates
        ) / len(self.replicates)

    def mean_quantiles(self) -> Optional[Dict[float, float]]:
        """Mean per-replicate extended quantiles, or None untracked."""
        tracked = [r.quantiles for r in self.replicates if r.quantiles]
        if not tracked:
            return None
        keys = sorted(tracked[0])
        return {
            q: sum(t[q] for t in tracked) / len(tracked) for q in keys
        }

    # -- presentation -------------------------------------------------

    def to_text(self) -> str:
        """Per-fault recovery table plus the summary lines."""
        rows = []
        for rep in self.replicates:
            for f in rep.faults:
                if f.node is not None:
                    target = f.node
                elif f.nodes:
                    target = ",".join(str(n) for n in f.nodes)
                else:
                    target = "-"
                rows.append([
                    rep.seed,
                    f.kind,
                    f"{f.time_ms:.0f}",
                    target,
                    (
                        f.reattained_after
                        if f.reattained_after is not None else "never"
                    ),
                    f"{f.violation_area:.2f}",
                ])
        table = format_table(
            ["seed", "fault", "time_ms", "node", "reattained_after",
             "violation_ms_s"],
            rows,
            title="Resilience: recovery per injected fault",
        )
        mean_re = self.mean_reattainment_intervals()
        lines = [
            table,
            "",
            f"fault schedule: {self.fault_spec}",
            f"goal: {self.goal_ms:.2f} ms, interval: "
            f"{self.interval_ms:.0f} ms, replicates: "
            f"{len(self.replicates)}",
            "mean time-to-goal-reattainment: "
            + ("n/a" if mean_re is None else f"{mean_re:.1f} intervals"),
            f"mean goal-violation area: "
            f"{self.mean_violation_area():.2f} ms*s",
            f"mean p95 response time: "
            f"{self.mean_p95_rt_ms():.2f} ms",
            *(
                [
                    "mean response time quantiles (ms): " + ", ".join(
                        f"p{q * 100:g}={ms:.2f}"
                        for q, ms in sorted(self.mean_quantiles().items())
                    )
                ]
                if self.mean_quantiles() is not None else []
            ),
            f"reports dropped: "
            f"{sum(r.reports_dropped for r in self.replicates)}, "
            f"allocation retries: "
            f"{sum(r.allocation_retries for r in self.replicates)}, "
            f"unconfirmed: "
            f"{sum(r.allocation_unconfirmed for r in self.replicates)}, "
            f"measure points invalidated: "
            f"{sum(r.invalidated_points for r in self.replicates)}",
        ]
        by_kind = self.outcomes_by_kind()
        if by_kind:
            parts = []
            for kind in sorted(by_kind):
                outcomes = by_kind[kind]
                recovered = [
                    f.reattained_after for f in outcomes
                    if f.reattained_after is not None
                ]
                mean = (
                    f"{sum(recovered) / len(recovered):.1f}"
                    if recovered else "never"
                )
                parts.append(
                    f"{kind} n={len(outcomes)} "
                    f"reattain={mean}/{len(recovered)}ok"
                )
            lines.append("reattainment by kind: " + ", ".join(parts))
        if any(r.coordinator_crashes or r.allocations_deferred
               for r in self.replicates):
            reps = self.replicates
            lines.append(
                f"control plane: coordinator crashes "
                f"{sum(r.coordinator_crashes for r in reps)}, "
                f"reports unreachable "
                f"{sum(r.reports_unreachable for r in reps)}, "
                f"allocations deferred "
                f"{sum(r.allocations_deferred for r in reps)}, "
                f"stale rejected "
                f"{sum(r.stale_allocations_rejected for r in reps)}, "
                f"degraded enter/exit "
                f"{sum(r.degraded_entries for r in reps)}/"
                f"{sum(r.degraded_exits for r in reps)}, "
                f"reconciles {sum(r.reconciles for r in reps)} "
                f"(repairs {sum(r.reconcile_repairs for r in reps)})"
            )
        lines.append(
            f"all crashes reattained: {self.all_crashes_reattained()}"
        )
        if self.control_outcomes():
            lines.append(
                f"all control faults reattained: "
                f"{self.all_control_faults_reattained()}"
            )
        return "\n".join(lines)

    def to_chart(self) -> str:
        """Replicate 0's RT vs. goal, with the fault times marked."""
        from repro.experiments.plotting import ascii_chart, overlay_chart

        if not self.replicates:
            return "(no replicates)"
        rep = self.replicates[0]
        top = overlay_chart(
            rep.observed_rt, rep.goal,
            label="observed response time (*) vs goal (o), ms "
                  "[replicate 0]",
        )
        excess = [
            max(0.0, rt - g) for rt, g in zip(rep.observed_rt, rep.goal)
        ]
        bottom = ascii_chart(
            excess, height=8,
            label="goal violation (observed - goal, ms, clipped at 0)",
        )
        marks = ", ".join(
            f"{f.kind}@{f.time_ms:.0f}ms" for f in rep.faults
        )
        return top + "\n\n" + bottom + f"\n\nfaults: {marks}"

    def save_csv(self, path: str) -> None:
        """Export replicate 0's per-interval series as CSV."""
        from repro.experiments.plotting import series_to_csv

        if not self.replicates:
            raise ValueError("no replicates to export")
        rep = self.replicates[0]
        series_to_csv(
            ["interval", "observed_rt_ms", "goal_ms", "satisfied"],
            [rep.intervals, rep.observed_rt, rep.goal,
             [int(s) for s in rep.satisfied]],
            path=path,
        )


def _recovery_metrics(
    records, injected, interval_ms: float
) -> List[FaultOutcome]:
    """Per-fault recovery metrics from the coordinator's decision log.

    The decision log is per-interval aligned (one record per evaluate),
    so "intervals until reattainment" is a simple record count.  The
    violation area of a fault integrates from the fault to its
    reattainment (or the end of the run).
    """
    outcomes = []
    for fault in injected:
        after = [r for r in records if r.time > fault.time_ms]
        reattained: Optional[int] = None
        area = 0.0
        for i, record in enumerate(after, start=1):
            if record.observed_rt is not None:
                area += (
                    max(0.0, record.observed_rt - record.goal_ms)
                    * interval_ms / 1000.0
                )
                if record.satisfied and reattained is None:
                    reattained = i
                    break
        outcomes.append(
            FaultOutcome(
                kind=fault.kind,
                time_ms=fault.time_ms,
                node=fault.node,
                duration_ms=fault.duration_ms,
                reattained_after=reattained,
                violation_area=area,
                nodes=fault.nodes,
            )
        )
    return outcomes


def _build_resilience_sim(
    config: SystemConfig,
    goal_ms: float,
    warmup_ms: float,
    fault_spec: Optional[str],
    seed: int,
) -> Simulation:
    """Assemble one seeded resilience simulation (not yet warmed);
    ``fault_spec=None`` builds the fault-free twin."""
    workload = default_workload(config, goal_ms=goal_ms)
    return Simulation(
        config=config, workload=workload, seed=seed,
        warmup_ms=warmup_ms, faults=fault_spec,
    )


def _measure_resilience(
    sim: Simulation, intervals: int
) -> ResilienceReplicate:
    """Run the measured horizon and extract the recovery metrics."""
    sim.run(intervals=intervals)

    controller = sim.controller
    coordinator = controller.coordinators[GOAL_CLASS]
    records = coordinator.decision_log
    rep = ResilienceReplicate(
        seed=sim.cluster.rng.seed,
        goal_ms=controller.goal_of(GOAL_CLASS),
    )
    total_area = 0.0
    for i, record in enumerate(records):
        rep.intervals.append(i + 1)
        rep.observed_rt.append(
            record.observed_rt
            if record.observed_rt is not None else float("nan")
        )
        rep.goal.append(record.goal_ms)
        rep.satisfied.append(record.satisfied)
        if record.observed_rt is not None:
            total_area += (
                max(0.0, record.observed_rt - record.goal_ms)
                * sim.controller.interval_ms / 1000.0
            )
    rep.total_violation_area = total_area
    rep.faults = _recovery_metrics(
        records, sim.fault_injector.injected, controller.interval_ms
    )
    rep.reports_dropped = controller.reports_dropped
    rep.allocation_retries = controller.allocation_retries
    rep.allocation_unconfirmed = controller.allocation_unconfirmed
    rep.invalidated_points = coordinator.invalidated_points
    rep.p95_rt_ms = controller.p95_response_ms(GOAL_CLASS)
    rep.quantiles = controller.response_quantiles(GOAL_CLASS)
    rep.coordinator_crashes = controller.coordinator_crashes
    rep.reports_unreachable = controller.reports_unreachable
    rep.allocations_deferred = controller.allocations_deferred
    rep.stale_allocations_rejected = controller.stale_allocations_rejected
    rep.degraded_entries = controller.degraded_entries
    rep.degraded_exits = controller.degraded_exits
    rep.reconciles = sim.cluster.reconciles
    rep.reconcile_repairs = sim.cluster.reconcile_repairs
    rep.final_epoch = coordinator.epoch
    sim.export_telemetry()
    return rep


def run_resilience(
    seed: int = 0,
    intervals: int = 90,
    config: Optional[SystemConfig] = None,
    goal_ms: float = 6.0,
    faults: Optional[str] = None,
    replications: int = 2,
    warmup_ms: float = RESILIENCE_WARMUP_MS,
    jobs: int = 1,
    telemetry: Optional[str] = None,
) -> ResilienceData:
    """Run the resilience experiment and return the aggregated data.

    ``faults`` is a fault spec string (see :mod:`repro.faults`); when
    None the :func:`default_fault_spec` scaled to the horizon is used.
    ``config`` defaults to the full §7.1 environment; pass
    :func:`quick_config` for smoke runs.  ``jobs`` parallelizes
    replicates with bit-identical results.  (Replicates never share a
    warm-up trajectory — every replicate has its own seed — so each is
    a one-point warm group that :func:`run_sweep` runs cold; the fork
    path amortizes :func:`run_goal_sweep` instead.)  ``telemetry``
    exports replicate ``i`` to ``<dir>/rep<i>/``.
    """
    config = config if config is not None else SystemConfig()
    if faults is None:
        faults = default_fault_spec(
            intervals, config.observation_interval_ms, warmup_ms
        )
    groups = [
        WarmGroup(
            build=functools.partial(
                _build_resilience_sim, config, goal_ms, warmup_ms, faults,
                derive_replicate_seed(seed, i),
            ),
            deltas=[WarmDelta(label=f"rep{i}")],
            measure=functools.partial(
                _measure_resilience, intervals=intervals
            ),
        )
        for i in range(replications)
    ]
    _, results = run_sweep(groups, jobs, telemetry)
    return ResilienceData(
        fault_spec=faults,
        goal_ms=goal_ms,
        interval_ms=config.observation_interval_ms,
        replicates=[rep for [rep] in results],
    )


@dataclass
class ResilienceGoalSweep:
    """Recovery metrics as a function of goal tightness.

    One :class:`ResilienceData` per swept goal, all under the *same*
    fault schedule and seeds — on the fork path, literally the same
    warmed memory image per replicate, so differences between goals are
    purely the controller's doing.
    """

    fault_spec: str
    runner: str
    results: List[ResilienceData] = field(default_factory=list)

    def to_text(self) -> str:
        """Summary table: recovery metrics per swept goal."""
        rows = []
        for data in self.results:
            mean_re = data.mean_reattainment_intervals()
            rows.append([
                data.goal_ms,
                len(data.replicates),
                "n/a" if mean_re is None else round(mean_re, 1),
                round(data.mean_violation_area(), 2),
                data.all_crashes_reattained(),
            ])
        return format_table(
            ["goal_ms", "replicates", "mean reattain (intervals)",
             "violation (ms*s)", "all crashes reattained"],
            rows,
            title=f"Resilience goal sweep ({self.runner} runner)",
        )


def run_goal_sweep(
    goals: Sequence[float] = (4.0, 6.0, 8.0),
    seed: int = 0,
    intervals: int = 90,
    config: Optional[SystemConfig] = None,
    faults: Optional[str] = None,
    replications: int = 1,
    warmup_ms: float = RESILIENCE_WARMUP_MS,
    jobs: int = 1,
    telemetry: Optional[str] = None,
) -> ResilienceGoalSweep:
    """Measure recovery under the same fault schedule at several goals.

    The default schedule injects every fault *after* the warm-up
    horizon and the goal never reaches the workload or the fault
    injector, so all goals of a replicate share one warmed image: each
    replicate seed is one warm group, warmed (workload **and** armed
    injector) once, with the goal points forked from it.  The cold path
    (platforms without ``os.fork``) runs one simulation per
    (seed, goal) — bit-identical.
    """
    config = config if config is not None else SystemConfig()
    goals = list(goals)
    if faults is None:
        faults = default_fault_spec(
            intervals, config.observation_interval_ms, warmup_ms
        )
    groups = [
        WarmGroup(
            build=functools.partial(
                _build_resilience_sim, config, goals[0], warmup_ms, faults,
                derive_replicate_seed(seed, rep),
            ),
            deltas=[
                WarmDelta.for_goals(
                    {GOAL_CLASS: goal_ms}, label=f"rep{rep}-goal{g}"
                )
                for g, goal_ms in enumerate(goals)
            ],
            measure=functools.partial(
                _measure_resilience, intervals=intervals
            ),
        )
        for rep in range(replications)
    ]
    # One warm group per replicate seed; regroup its per-goal results.
    mode, per_seed = run_sweep(groups, jobs, telemetry)
    sweep = ResilienceGoalSweep(fault_spec=faults, runner=mode)
    for g, goal_ms in enumerate(goals):
        sweep.results.append(ResilienceData(
            fault_spec=faults,
            goal_ms=goal_ms,
            interval_ms=config.observation_interval_ms,
            replicates=[results[g] for results in per_seed],
        ))
    return sweep
