"""Table 2 — convergence speed under varying access skew (§7.3).

For skew theta in {0, 0.25, 0.5, 0.75, 1} the experiment measures the
mean number of feedback-loop iterations needed to adapt to a goal
change.  Higher skew bends the true response time surface away from a
hyperplane, so the linear approximation needs more iterations — the
paper reports 1.84 iterations at theta = 0 rising monotonically to
3.95 at theta = 1.

Run it with ``python -m repro table2``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.experiments.convergence import (
    ConvergenceResult,
    ConvergenceSettings,
    convergence_experiment,
)
from repro.experiments.reporting import format_table

#: The skew values of the paper's Table 2.
PAPER_SKEWS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: The paper's measured iteration counts, for comparison.
PAPER_TABLE2 = {0.0: 1.84, 0.25: 2.41, 0.5: 3.55, 0.75: 3.88, 1.0: 3.95}


def run_table2(
    skews: Sequence[float] = PAPER_SKEWS,
    settings: Optional[ConvergenceSettings] = None,
    target_half_width: float = 1.0,
    max_replications: int = 12,
    base_seed: int = 100,
    jobs: int = 1,
) -> List[ConvergenceResult]:
    """Measure convergence speed for every skew value.

    ``jobs`` parallelizes the replicates *within* each skew point; the
    sequential stopping rule is unchanged, so results are identical to
    ``jobs=1`` for any value.  Skew reshapes the page-access
    distribution during warm-up and every replicate is independently
    seeded, so there is no warm state to share.
    """
    settings = settings if settings is not None else ConvergenceSettings()
    results = []
    for skew in skews:
        result = convergence_experiment(
            settings=replace(settings, skew=skew),
            target_half_width=target_half_width,
            max_replications=max_replications,
            base_seed=base_seed,
            jobs=jobs,
        )
        results.append(result)
    return results


def to_text(results: List[ConvergenceResult]) -> str:
    """Render measured convergence next to the paper's values."""
    rows = [
        [
            r.skew,
            r.mean_iterations,
            r.half_width,
            len(r.samples),
            PAPER_TABLE2.get(r.skew, "-"),
        ]
        for r in results
    ]
    return format_table(
        ["skew", "iterations", "ci half-width", "samples", "paper"],
        rows,
        title="Table 2: convergence speed under varying skew",
    )
