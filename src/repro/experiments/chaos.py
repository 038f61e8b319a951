"""Chaos harness: randomized control-plane fault schedules, asserted.

The resilience experiment measures recovery under one hand-written
fault schedule.  The chaos harness instead *generates* a schedule per
seed — always including a coordinator crash and a network partition,
optionally a node crash and a second coordinator outage — runs the
full simulation, and asserts safety and liveness properties that must
hold regardless of where the faults landed:

``directory_clean``
    The page directory's internal invariants hold at quiesce and every
    entry agrees with the actual buffer-pool contents
    (:meth:`PageDirectory.audit` returns no problems).

``directory_matches_rebuild``
    The post-fault directory snapshot equals a from-scratch rebuild
    from the pools — anti-entropy left no residue.

``no_dead_epoch_applied``
    No allocation computed under a dead coordinator epoch was applied:
    the deferred-delivery queue has fully drained and every
    coordinator's believed allocation matches what the cluster actually
    granted.  (Stale deliveries are rejected and counted, never
    applied.)

``goal_reattained``
    The goal class re-enters its tolerance band after the last injected
    fault, within the fault-free quiesce tail.

Schedules are drawn with :class:`random.Random` *before* the simulation
starts, so the harness adds no randomness to the runs themselves; all
faults end within ~65 % of the horizon, leaving a quiesce tail for the
properties to stabilize.  Each harness invocation additionally runs one
fault-free pair of simulations and asserts their end states are
bit-identical — the control-plane machinery must cost nothing when no
fault fires.

Run it with ``python -m repro chaos``.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.config import SystemConfig
from repro.experiments.parallel import derive_replicate_seed, run_tasks
from repro.experiments.reporting import format_table
from repro.experiments.resilience import GOAL_CLASS, _build_resilience_sim
from repro.experiments.runner import (
    RESILIENCE_WARMUP_MS,
    Simulation,
)

#: Fraction of the measured horizon by which every fault has ended;
#: the remainder is the fault-free quiesce tail the properties need.
QUIESCE_FRACTION = 0.35
#: Measured intervals of each run of the fault-free identity pair.
IDENTITY_INTERVALS = 8


def generate_schedule(
    seed: int,
    intervals: int,
    interval_ms: float,
    num_nodes: int,
    warmup_ms: float = 0.0,
) -> str:
    """Draw one randomized control-plane fault schedule.

    Deterministic in ``seed`` (a private :class:`random.Random`, drawn
    before any simulation exists).  Always contains one coordinator
    crash and one partition; a node crash and a second coordinator
    outage join with fixed probabilities.  Every
    fault ends before ``1 - QUIESCE_FRACTION`` of the horizon so the
    run quiesces.  ``netloss`` and ``diskslow`` are deliberately
    excluded: message drops make end-state equalities probabilistic,
    data-plane slowdowns can push a scaled-down node past saturation
    (recovery then measures queue draining, not the control plane),
    and both have their own experiment (resilience).
    """
    if intervals < 20:
        raise ValueError("chaos schedules need >= 20 intervals")
    if num_nodes < 2:
        raise ValueError("chaos schedules need >= 2 nodes")
    rng = random.Random(seed)
    horizon = intervals * interval_ms

    def at(fraction: float) -> float:
        return warmup_ms + fraction * horizon

    clauses = [
        # The tentpole fault: coordinator memory dies for 1-3 intervals.
        f"coordcrash@{at(rng.uniform(0.12, 0.28)):.0f}"
        f":dur={rng.randint(1, 3) * interval_ms:.0f}"
    ]
    # Partition 1..(n-1) nodes off the control network for 2-5
    # intervals (>= degraded_after sometimes, so degraded mode and the
    # deferred-allocation path both get exercised across seeds).
    width = rng.randint(1, min(2, num_nodes - 1))
    nodes = ",".join(str(n) for n in sorted(rng.sample(range(num_nodes), width)))
    clauses.append(
        f"partition@{at(rng.uniform(0.32, 0.45)):.0f}"
        f":nodes={nodes}:dur={rng.randint(2, 5) * interval_ms:.0f}"
    )
    if rng.random() < 0.5:
        clauses.append(
            f"crash@{at(rng.uniform(0.30, 0.50)):.0f}"
            f":node=any:restart={interval_ms:.0f}"
        )
    if rng.random() < 0.3:
        # A second, shorter outage late in the fault window; its start
        # (>= 0.50 of the horizon) clears the first outage's end
        # (<= 0.28 + 3/20) for any intervals >= 20.
        clauses.append(
            f"coordcrash@{at(rng.uniform(0.50, 0.58)):.0f}"
            f":dur={interval_ms:.0f}"
        )
    return ";".join(clauses)


def rebuild_directory_state(
    pools: Dict[int, Set[int]]
) -> Dict[int, tuple]:
    """Directory snapshot a from-scratch rebuild of ``pools`` yields.

    The ground truth for the anti-entropy property: for every cached
    page, ``(copy count, lowest holder, sorted holders)`` derived from
    nothing but the actual buffer-pool contents.
    """
    return {
        page_id: (len(holders), min(holders), tuple(sorted(holders)))
        for page_id, holders in pools.items()
        if holders
    }


def run_digest(sim: Simulation) -> tuple:
    """End-state digest for the bit-identity property.

    Covers the clock, the scheduling sequence counter, every RNG
    stream's exact state, the buffer-pool contents, and the
    coordinators' believed allocations — two runs that diverged
    anywhere in their event sequence cannot collide on all of these.
    """
    env = sim.env
    cluster = sim.cluster
    pools = tuple(
        (node_id, tuple(sorted(pages)))
        for node_id, pages in sorted(cluster.pool_contents().items())
    )
    allocations = tuple(
        (class_id, tuple(float(b) for b in coordinator.current_allocation))
        for class_id, coordinator in sorted(
            sim.controller.coordinators.items()
        )
    )
    streams = tuple(sorted(
        (name, stream.getstate())
        for name, stream in cluster.rng._streams.items()
    ))
    return (env._now, env._seq, pools, allocations, streams)


@dataclass
class ChaosSeedResult:
    """Outcome of one seeded chaos run."""

    seed: int
    fault_spec: str
    #: Property name -> held?  (see the module docstring)
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Human-readable details for failed checks.
    failures: List[str] = field(default_factory=list)
    #: Intervals from the last fault to goal reattainment (None =
    #: never within the run).
    reattained_after: Optional[int] = None
    coordinator_crashes: int = 0
    stale_allocations_rejected: int = 0
    allocations_deferred: int = 0
    degraded_entries: int = 0
    degraded_exits: int = 0
    reconciles: int = 0
    reconcile_repairs: int = 0
    final_epoch: int = 0

    @property
    def passed(self) -> bool:
        """True when every property held for this seed."""
        return all(self.checks.values())


@dataclass
class ChaosMatrix:
    """Aggregated chaos results (the CI resilience-matrix artifact)."""

    intervals: int
    goal_ms: float
    results: List[ChaosSeedResult] = field(default_factory=list)
    #: Did the fault-free pair produce bit-identical end states?
    identity_ok: bool = True

    def all_passed(self) -> bool:
        """True when every seed passed and the identity pair matched."""
        return (
            self.identity_ok
            and bool(self.results)
            and all(r.passed for r in self.results)
        )

    def to_text(self) -> str:
        """Human-readable matrix with per-seed property verdicts."""
        rows = []
        for r in self.results:
            failed = sorted(k for k, ok in r.checks.items() if not ok)
            rows.append([
                r.seed,
                r.final_epoch,
                r.stale_allocations_rejected,
                f"{r.degraded_entries}/{r.degraded_exits}",
                f"{r.reconciles}({r.reconcile_repairs})",
                "-" if r.reattained_after is None else r.reattained_after,
                "pass" if r.passed else "FAIL: " + ",".join(failed),
            ])
        table = format_table(
            ["seed", "epoch", "stale rej", "degraded",
             "reconciles(repairs)", "reattain", "properties"],
            rows,
            title=f"Chaos matrix ({len(self.results)} seeds, "
                  f"{self.intervals} intervals)",
        )
        lines = [table]
        for r in self.results:
            for failure in r.failures:
                lines.append(f"  seed {r.seed}: {failure}")
        lines.append(f"no-fault pair bit-identical: {self.identity_ok}")
        lines.append(f"all seeds passed: {self.all_passed()}")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        """The matrix as plain JSON types (the CI artifact payload)."""
        return {
            "intervals": self.intervals,
            "goal_ms": self.goal_ms,
            "identity_ok": self.identity_ok,
            "all_passed": self.all_passed(),
            "results": [
                {
                    "seed": r.seed,
                    "fault_spec": r.fault_spec,
                    "checks": dict(r.checks),
                    "failures": list(r.failures),
                    "reattained_after": r.reattained_after,
                    "coordinator_crashes": r.coordinator_crashes,
                    "stale_allocations_rejected":
                        r.stale_allocations_rejected,
                    "allocations_deferred": r.allocations_deferred,
                    "degraded_entries": r.degraded_entries,
                    "degraded_exits": r.degraded_exits,
                    "reconciles": r.reconciles,
                    "reconcile_repairs": r.reconcile_repairs,
                    "final_epoch": r.final_epoch,
                }
                for r in self.results
            ],
        }

    def save_json(self, path: str) -> None:
        """Write :meth:`to_json` to ``path`` (pretty-printed)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_chaos_seed(
    seed: int,
    config: SystemConfig,
    goal_ms: float,
    intervals: int,
    warmup_ms: float,
) -> ChaosSeedResult:
    """Run one seeded chaos schedule and evaluate every property."""
    spec = generate_schedule(
        seed, intervals, config.observation_interval_ms,
        config.num_nodes, warmup_ms,
    )
    sim = _build_resilience_sim(config, goal_ms, warmup_ms, spec, seed)
    sim.run(intervals=intervals)

    cluster = sim.cluster
    controller = sim.controller
    coordinator = controller.coordinators[GOAL_CLASS]
    result = ChaosSeedResult(seed=seed, fault_spec=spec)

    # Property: directory invariants + agreement with the pools.
    pools = cluster.pool_contents()
    problems = cluster.directory.audit(pools)
    result.checks["directory_clean"] = not problems
    result.failures.extend(problems[:3])

    # Property: snapshot equals a from-scratch rebuild.
    snapshot = cluster.directory.state()
    rebuilt = rebuild_directory_state(pools)
    result.checks["directory_matches_rebuild"] = snapshot == rebuilt
    if snapshot != rebuilt:
        diff = set(snapshot.items()) ^ set(rebuilt.items())
        result.failures.append(
            f"directory snapshot != rebuild ({len(diff)} entries differ)"
        )

    # Property: no dead-epoch allocation was applied.  Direct evidence:
    # the deferred queue drained during the quiesce tail, and every
    # coordinator's belief matches the granted truth (an old-epoch
    # write would have desynchronized them; stale deliveries are
    # rejected and only ever increment the counter).
    pending_empty = not controller._pending
    views_agree = all(
        [float(b) for b in coord.current_allocation]
        == [float(b) for b in cluster.dedicated_bytes(class_id)]
        for class_id, coord in controller.coordinators.items()
    )
    result.checks["no_dead_epoch_applied"] = pending_empty and views_agree
    if not pending_empty:
        result.failures.append(
            f"deferred allocations never delivered: {controller._pending}"
        )
    if not views_agree:
        result.failures.append(
            "coordinator allocation view diverged from the cluster"
        )

    # Property: the goal class re-enters its band after the last fault.
    last_fault_ms = max(
        (f.time_ms for f in sim.fault_injector.injected), default=0.0
    )
    reattained = None
    after = 0
    for record in coordinator.decision_log:
        if record.time <= last_fault_ms:
            continue
        after += 1
        if record.observed_rt is not None and record.satisfied:
            reattained = after
            break
    result.reattained_after = reattained
    result.checks["goal_reattained"] = reattained is not None
    if reattained is None:
        result.failures.append(
            f"goal never reattained after the last fault "
            f"(t={last_fault_ms:g} ms)"
        )

    result.coordinator_crashes = controller.coordinator_crashes
    result.stale_allocations_rejected = (
        controller.stale_allocations_rejected
    )
    result.allocations_deferred = controller.allocations_deferred
    result.degraded_entries = controller.degraded_entries
    result.degraded_exits = controller.degraded_exits
    result.reconciles = cluster.reconciles
    result.reconcile_repairs = cluster.reconcile_repairs
    result.final_epoch = coordinator.epoch
    return result


def _identity_pair_ok(
    config: SystemConfig,
    goal_ms: float,
    warmup_ms: float,
    seed: int,
) -> bool:
    """Two fault-free runs of the same seed end bit-identically."""
    digests = []
    for _ in range(2):
        sim = _build_resilience_sim(config, goal_ms, warmup_ms, None, seed)
        sim.run(intervals=IDENTITY_INTERVALS)
        digests.append(run_digest(sim))
    return digests[0] == digests[1]


def run_chaos(
    seeds: int = 5,
    base_seed: int = 0,
    intervals: int = 40,
    config: Optional[SystemConfig] = None,
    goal_ms: float = 6.0,
    warmup_ms: float = RESILIENCE_WARMUP_MS,
    jobs: int = 1,
) -> ChaosMatrix:
    """Run the chaos harness and return the property matrix.

    Seed ``i`` runs ``derive_replicate_seed(base_seed, i)`` — the same
    derivation as every replicated experiment — under its own generated
    schedule.  ``jobs`` parallelizes seeds with bit-identical results.
    One fault-free identity pair runs in the parent regardless.
    ``config`` defaults to the full §7.1 environment; pass
    :func:`~repro.experiments.resilience.quick_config` for smoke runs.
    """
    config = config if config is not None else SystemConfig()
    worker = functools.partial(
        run_chaos_seed, config=config, goal_ms=goal_ms,
        intervals=intervals, warmup_ms=warmup_ms,
    )
    tasks = [derive_replicate_seed(base_seed, i) for i in range(seeds)]
    results = run_tasks(worker, tasks, jobs=jobs)
    matrix = ChaosMatrix(
        intervals=intervals, goal_ms=goal_ms, results=results,
    )
    matrix.identity_ok = _identity_pair_ok(
        config, goal_ms, warmup_ms, derive_replicate_seed(base_seed, 0),
    )
    return matrix
