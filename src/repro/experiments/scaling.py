"""Scaling studies: node count and operation complexity (§7.2).

The paper reports that the base-experiment behaviour — fast convergence
to a satisfying partitioning — held "for all experiments conducted,
including experiments with vastly more complex operations, dynamically
changing workloads or a larger number of nodes".  These runs check the
two structural axes:

- **node count**: the optimization problem grows one dimension per
  node (the window needs N + 1 independent points before the LP can
  fire), so warm-up lengthens but convergence must still happen;
- **operation complexity**: more page accesses per operation raise
  response times but do not change the feedback structure.

Configurations are independent seeded simulations — one-point warm
groups of :func:`repro.experiments.forkserver.run_sweep` — so both
sweeps accept ``jobs`` and farm points out to worker processes; results
are merged by point index and are identical for any ``jobs`` value.
Node counts up to 64 are supported (and exercised by ``repro scaling
--nodes 16 32 64``); they lean on the allocation-lean hot-path
structures.  ``tools/node_flatness.py`` (run in CI) fails when the
host cost per page access at 256 nodes exceeds a fixed multiple of
the cost at 8 nodes.

Run it with ``python -m repro scaling``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.cluster.config import SystemConfig
from repro.experiments.forkserver import WarmDelta, WarmGroup, run_sweep
from repro.experiments.reporting import format_table
from repro.experiments.runner import Simulation, default_workload


@dataclass
class ScalingPoint:
    """Outcome of one scaling configuration."""

    label: str
    num_nodes: int
    pages_per_op: int
    first_satisfied: Optional[int]
    satisfaction_ratio: float
    mean_rt_tail_ms: float


def _build_scaling_sim(
    config: SystemConfig, pages_per_op: int, seed: int
) -> Simulation:
    """One configuration with a calibrated goal (module-level: picklable).

    The goal is a modest, reachable one for this configuration: the
    response time of a probe run with half the cache statically
    dedicated.
    """
    from repro.experiments.calibration import measure_static_rt

    workload = _with_pages_per_op(default_workload(config), pages_per_op)
    probe_rt = measure_static_rt(
        workload, 1, 0.5, config, seed=seed,
        warmup_ms=20_000, measure_ms=30_000,
    )
    return Simulation(
        config=config, workload=workload.with_goal(1, probe_rt),
        seed=seed, warmup_ms=20_000.0,
    )


def _measure_scaling_point(
    sim: Simulation, label: str, pages_per_op: int, intervals: int
) -> ScalingPoint:
    sim.run(intervals=intervals)
    satisfied = sim.satisfied(1)
    rts = sim.controller.series[1].observed_rt.values
    tail = rts[-max(len(rts) // 3, 1):]
    sim.export_telemetry()
    return ScalingPoint(
        label=label,
        num_nodes=sim.config.num_nodes,
        pages_per_op=pages_per_op,
        first_satisfied=(
            satisfied.index(True) + 1 if any(satisfied) else None
        ),
        satisfaction_ratio=(
            sum(satisfied) / len(satisfied) if satisfied else 0.0
        ),
        mean_rt_tail_ms=sum(tail) / len(tail) if tail else 0.0,
    )


def _scaling_sweep(
    points: Sequence[Tuple[str, str, SystemConfig, int]],
    seed: int,
    intervals: int,
    jobs: int,
    telemetry: Optional[str],
) -> List[ScalingPoint]:
    """Run ``(label, dir label, config, pages_per_op)`` points cold."""
    groups = [
        WarmGroup(
            build=functools.partial(
                _build_scaling_sim, config, pages_per_op, seed
            ),
            deltas=[WarmDelta(label=dir_label)],
            measure=functools.partial(
                _measure_scaling_point, label=label,
                pages_per_op=pages_per_op, intervals=intervals,
            ),
        )
        for label, dir_label, config, pages_per_op in points
    ]
    _, results = run_sweep(groups, jobs, telemetry)
    return [point for [point] in results]


def _with_pages_per_op(workload, pages_per_op: int):
    """Change operation complexity at constant page-access load.

    The arrival rate scales inversely with the per-operation page
    count, so heavier operations do not overload the open system —
    only the response time structure changes.
    """
    from dataclasses import replace as dreplace

    from repro.workload.spec import WorkloadSpec

    return WorkloadSpec(classes=[
        dreplace(
            c,
            pages_per_op=pages_per_op,
            arrival_rate_per_node=(
                c.arrival_rate_per_node * c.pages_per_op / pages_per_op
            ),
        )
        for c in workload.classes
    ])


def run_node_scaling(
    node_counts: Sequence[int] = (3, 5),
    base_config: Optional[SystemConfig] = None,
    seed: int = 7,
    intervals: int = 50,
    jobs: int = 1,
    telemetry: Optional[str] = None,
) -> List[ScalingPoint]:
    """Convergence behaviour as the cluster grows."""
    base = base_config if base_config is not None else SystemConfig()
    return _scaling_sweep(
        [(f"{n} nodes", f"nodes{n}", replace(base, num_nodes=n), 4)
         for n in node_counts],
        seed, intervals, jobs, telemetry,
    )


def run_complexity_scaling(
    pages_per_op: Sequence[int] = (4, 8, 16),
    base_config: Optional[SystemConfig] = None,
    seed: int = 7,
    intervals: int = 50,
    jobs: int = 1,
    telemetry: Optional[str] = None,
) -> List[ScalingPoint]:
    """Convergence behaviour as operations get more complex."""
    config = base_config if base_config is not None else SystemConfig()
    return _scaling_sweep(
        [(f"{ppo} pages/op", f"ppo{ppo}", config, ppo)
         for ppo in pages_per_op],
        seed, intervals, jobs, telemetry,
    )


def to_text(points: List[ScalingPoint], title: str) -> str:
    """Render scaling points as a table."""
    return format_table(
        ["configuration", "nodes", "pages/op", "first satisfied",
         "satisfied ratio", "tail mean rt (ms)"],
        [
            [p.label, p.num_nodes, p.pages_per_op,
             p.first_satisfied if p.first_satisfied else "never",
             p.satisfaction_ratio, p.mean_rt_tail_ms]
            for p in points
        ],
        title=title,
    )


def run_scaling(
    node_counts: Sequence[int] = (3, 5),
    pages_per_op: Sequence[int] = (4, 8, 16),
    seed: int = 7,
    intervals: int = 50,
    jobs: int = 1,
    telemetry: Optional[str] = None,
) -> str:
    """Run both sweeps and render them; the ``repro scaling`` backend.

    An empty ``node_counts`` or ``pages_per_op`` skips that axis, so a
    smoke run can drive a single large-cluster point without paying for
    the other sweep.  ``telemetry`` exports per-point artifacts under
    ``<dir>/nodes/`` and ``<dir>/complexity/`` respectively.
    """
    def subdir(name: str) -> Optional[str]:
        return None if telemetry is None else os.path.join(telemetry, name)

    sections = []
    if node_counts:
        sections.append(to_text(
            run_node_scaling(
                node_counts=node_counts, seed=seed, intervals=intervals,
                jobs=jobs,
                telemetry=subdir("nodes"),
            ),
            "Scaling: number of nodes",
        ))
    if pages_per_op:
        sections.append(to_text(
            run_complexity_scaling(
                pages_per_op=pages_per_op, seed=seed,
                intervals=intervals, jobs=jobs,
                telemetry=subdir("complexity"),
            ),
            "Scaling: operation complexity",
        ))
    return "\n\n".join(sections)
