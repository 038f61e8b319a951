"""Analytic fast path: multiclass MVA + goal-space pre-screening.

Three layers (see docs/analytic.md):

* :mod:`repro.analytic.mva` — exact and Schweitzer/Bard approximate
  Mean Value Analysis for closed multiclass product-form networks;
* :mod:`repro.analytic.bridge` — the buffer-allocation → hit-rate →
  service-demand bridge mapping a cluster configuration to a network;
* :mod:`repro.analytic.frontier` — feasibility-frontier extraction
  over dense goal grids (the ``--prescreen`` machinery);
* :mod:`repro.analytic.validate` — the sim-vs-theory cross-validation
  harness behind ``repro validate-analytic``.
"""

from repro.analytic.bridge import (
    AnalyticPrediction,
    HitProfile,
    build_network,
    hit_profile,
    predict_response,
    service_demands,
)
from repro.analytic.frontier import (
    PairPrescreenReport,
    PrescreenReport,
    pair_grid,
    prescreen_goal_pairs,
    prescreen_goals,
)
from repro.analytic.mva import (
    ClosedNetwork,
    MvaSolution,
    Station,
    exact_mva,
    schweitzer_mva,
    solve,
)
from repro.analytic.validate import (
    ValidationCase,
    ValidationReport,
    default_cases,
    run_validation,
)

__all__ = [
    "AnalyticPrediction",
    "ClosedNetwork",
    "HitProfile",
    "MvaSolution",
    "PairPrescreenReport",
    "PrescreenReport",
    "Station",
    "ValidationCase",
    "ValidationReport",
    "build_network",
    "default_cases",
    "exact_mva",
    "hit_profile",
    "pair_grid",
    "predict_response",
    "prescreen_goal_pairs",
    "prescreen_goals",
    "run_validation",
    "schweitzer_mva",
    "service_demands",
    "solve",
]
