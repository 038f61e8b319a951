"""Section 7.5 — overhead of the goal-oriented machinery.

The paper reports that, thanks to the observation-interval pacing and
the small message sizes, the control messages of the method account for
less than 0.1 % of the total network traffic, and that CPU and memory
overheads are insignificant.  This experiment runs the base workload
and breaks the simulated traffic down by message kind, estimates the
coordinator CPU time from the Table 1 task measurements, and sizes the
coordinator's memory footprint.

Run it with ``python -m repro overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.config import SystemConfig
from repro.cluster.messages import CONTROL_KINDS, MessageKind
from repro.experiments.reporting import format_table
from repro.experiments.runner import Simulation, default_workload
from repro.experiments.table1 import measure_row


@dataclass
class OverheadResult:
    """Overhead breakdown of one run."""

    total_bytes: int
    control_bytes: int
    bytes_by_kind: Dict[MessageKind, int]
    messages_by_kind: Dict[MessageKind, int]
    #: Coordinator CPU ms consumed per simulated second (estimate).
    coordinator_cpu_ms_per_s: float
    #: Coordinator state size in bytes (measure points + reports).
    coordinator_memory_bytes: int
    simulated_ms: float

    @property
    def control_fraction(self) -> float:
        """Control bytes / total bytes."""
        return (
            self.control_bytes / self.total_bytes if self.total_bytes else 0.0
        )

    def to_text(self) -> str:
        """Render the traffic breakdown and overhead summary."""
        rows = [
            [
                kind.value,
                self.messages_by_kind.get(kind, 0),
                self.bytes_by_kind.get(kind, 0),
                "control" if kind in CONTROL_KINDS else "data",
            ]
            for kind in MessageKind
        ]
        table = format_table(
            ["message kind", "count", "bytes", "path"],
            rows,
            title="Section 7.5: network traffic by message kind",
        )
        return (
            f"{table}\n\n"
            f"control fraction of network traffic: "
            f"{self.control_fraction * 100:.4f} %\n"
            f"coordinator CPU: {self.coordinator_cpu_ms_per_s:.4f} ms "
            f"per simulated second\n"
            f"coordinator memory: {self.coordinator_memory_bytes} bytes"
        )


def run_overhead(
    seed: int = 1,
    intervals: int = 40,
    config: Optional[SystemConfig] = None,
    goal_ms: float = 6.0,
) -> OverheadResult:
    """Run the base workload and account the overheads."""
    config = config if config is not None else SystemConfig()
    workload = default_workload(config, goal_ms=goal_ms)
    sim = Simulation(
        config=config, workload=workload, seed=seed, warmup_ms=20_000.0
    )
    sim.run(intervals=intervals)

    accounting = sim.cluster.network.accounting
    coordinator = sim.controller.coordinators[1]
    # CPU: per-optimization cost measured like Table 1, times the
    # number of optimizations actually run.
    row = measure_row(config.num_nodes, repetitions=20)
    total_cpu_ms = coordinator.optimizations * row.overall_ms
    simulated_ms = sim.env.now

    # Memory: retained measure points, one float per node plus two
    # response times and a timestamp, plus the remembered agent reports.
    floats_per_point = config.num_nodes + 3
    point_bytes = len(coordinator.window) * floats_per_point * 8
    report_bytes = (
        len(coordinator.goal_reports) + len(coordinator.nogoal_reports)
    ) * 7 * 8
    return OverheadResult(
        total_bytes=accounting.total_bytes,
        control_bytes=accounting.control_bytes,
        bytes_by_kind=dict(accounting.bytes_by_kind),
        messages_by_kind=dict(accounting.messages_by_kind),
        coordinator_cpu_ms_per_s=(
            total_cpu_ms / (simulated_ms / 1_000.0) if simulated_ms else 0.0
        ),
        coordinator_memory_bytes=point_bytes + report_bytes,
        simulated_ms=simulated_ms,
    )
