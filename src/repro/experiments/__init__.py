"""Experiment harness reproducing every table and figure of the paper.

- :mod:`repro.experiments.table1` — coordinator CPU times (Table 1).
- :mod:`repro.experiments.figure2` — the base experiment (Figure 2).
- :mod:`repro.experiments.table2` — convergence vs. skew (Table 2).
- :mod:`repro.experiments.multiclass` — §7.4 multi-goal-class study.
- :mod:`repro.experiments.overhead` — §7.5 overhead accounting.
- :mod:`repro.experiments.calibration` — the §7.3 goal-range anchors.
- :mod:`repro.experiments.convergence` — the §7.1 measurement protocol.
- :mod:`repro.experiments.forkserver` — the one sweep executor.
"""

from repro.experiments.calibration import (
    GoalRange,
    calibrate_goal_range,
    measure_static_rt,
)
from repro.experiments.forkserver import (
    WarmDelta,
    WarmGroup,
    WarmupInvarianceError,
    apply_delta,
    plan_sweep,
    run_sweep,
    supports_fork,
)
from repro.experiments.convergence import (
    ConvergenceResult,
    ConvergenceSettings,
    convergence_experiment,
    measure_convergence_run,
)
from repro.experiments.figure2 import (
    Figure2Data,
    GoalSweepData,
    run_figure2,
    run_goal_sweep,
)
from repro.experiments.multiclass import (
    MulticlassGoalSweep,
    MulticlassResult,
    SharingPoint,
    doubled_cache_config,
    multiclass_workload,
    run_sharing_point,
    run_sharing_sweep,
)
from repro.experiments.overhead import OverheadResult, run_overhead
from repro.experiments.runner import (
    CALIBRATION_WARMUP_MS,
    DEFAULT_WARMUP_MS,
    RESILIENCE_WARMUP_MS,
    Simulation,
    build_base_experiment,
    default_workload,
)
from repro.experiments.scaling import (
    ScalingPoint,
    run_complexity_scaling,
    run_node_scaling,
)
from repro.experiments.table1 import (
    PAPER_TABLE1,
    Table1Row,
    measure_row,
    run_table1,
)
from repro.experiments.table2 import PAPER_TABLE2, run_table2

__all__ = [
    "CALIBRATION_WARMUP_MS",
    "ConvergenceResult",
    "ConvergenceSettings",
    "DEFAULT_WARMUP_MS",
    "Figure2Data",
    "GoalRange",
    "GoalSweepData",
    "MulticlassGoalSweep",
    "MulticlassResult",
    "OverheadResult",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "RESILIENCE_WARMUP_MS",
    "ScalingPoint",
    "SharingPoint",
    "Simulation",
    "Table1Row",
    "WarmDelta",
    "WarmGroup",
    "WarmupInvarianceError",
    "apply_delta",
    "run_complexity_scaling",
    "run_node_scaling",
    "build_base_experiment",
    "calibrate_goal_range",
    "convergence_experiment",
    "default_workload",
    "doubled_cache_config",
    "measure_convergence_run",
    "measure_row",
    "measure_static_rt",
    "multiclass_workload",
    "plan_sweep",
    "run_figure2",
    "run_goal_sweep",
    "run_overhead",
    "run_sharing_point",
    "run_sharing_sweep",
    "run_table1",
    "run_table2",
    "run_sweep",
    "supports_fork",
]
