"""Run every experiment of the paper and emit a combined report.

This is the one-shot reproduction driver::

    python -m repro all                        # full protocol (slow)
    python -m repro all --quick | tee all.txt  # reduced replication

The output contains, for each table and figure, the regenerated rows
next to the paper's published values, ready to be pasted into
EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from repro.cluster.config import SystemConfig
from repro.experiments.calibration import calibrate_goal_range
from repro.experiments.convergence import ConvergenceSettings
from repro.experiments.figure2 import run_figure2
from repro.experiments.multiclass import run_sharing_sweep
from repro.experiments.overhead import run_overhead
from repro.experiments.reporting import emit
from repro.experiments.runner import default_workload
from repro.experiments import table1, table2


def run_all(quick: bool = False) -> None:
    """Run table1, figure2, table2, §7.4 and §7.5 in sequence."""
    config = SystemConfig()
    t_start = time.time()

    def section(title: str) -> None:
        emit(f"\n{'=' * 70}\n{title}\n{'=' * 70}")

    section("Table 1 — coordinator CPU time per task")
    rows = table1.run_table1(repetitions=20 if quick else 50)
    emit(table1.to_text(rows))

    section("Calibration — goal range (§7.3 anchors)")
    workload = default_workload(config)
    goal_range = calibrate_goal_range(
        workload, class_id=1, config=config, seed=100,
        warmup_ms=30_000 if quick else 60_000,
        measure_ms=45_000 if quick else 90_000,
    )
    emit(
        f"goal_min (2/3 dedicated): {goal_range.goal_min_ms:.2f} ms\n"
        f"goal_max (1/3 dedicated): {goal_range.goal_max_ms:.2f} ms"
    )

    section("Figure 2 — base experiment")
    data = run_figure2(
        seed=1,
        intervals=40 if quick else 80,
        config=config,
        goal_range=goal_range,
    )
    emit(data.to_text())
    emit(
        f"satisfaction ratio: {data.satisfaction_ratio():.2f}\n"
        f"corr(RT, dedicated memory): {data.rt_tracks_memory():.2f}"
    )

    section("Table 2 — convergence speed vs. skew")
    settings = ConvergenceSettings(
        config=config,
        goal_changes_per_run=3 if quick else 5,
    )
    skews = (0.0, 0.5, 1.0) if quick else table2.PAPER_SKEWS
    results = table2.run_table2(
        skews=skews,
        settings=settings,
        target_half_width=1.5 if quick else 1.0,
        max_replications=3 if quick else 12,
        base_seed=100,
    )
    emit(table2.to_text(results))

    section("Section 7.4 — data sharing between goal classes")
    sweep = run_sharing_sweep(
        sharings=(0.0, 0.5, 1.0) if quick else (0.0, 0.25, 0.5, 0.75, 1.0),
        intervals=40 if quick else 60,
    )
    emit(sweep.to_text())
    emit(
        "k2 dedicated memory decreases with sharing: "
        f"{sweep.k2_dedicated_decreases()}"
    )

    section("Section 7.5 — overhead")
    overhead = run_overhead(
        seed=1, intervals=20 if quick else 40, config=config
    )
    emit(overhead.to_text())

    emit(
        f"\nall experiments finished in "
        f"{time.time() - t_start:.0f} s wall-clock"
    )
