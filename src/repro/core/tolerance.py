"""Workload-dependent goal tolerance (after Brown et al. [5]).

Due to stochastic noise a goal is only considered violated if the
observed response time differs from the goal by more than a tolerance
delta (§5 phase (c)).  Following the fragment-fencing method the paper
adopts, the tolerance is derived from the observed variation of the
per-interval response times while goal and partitioning stay constant:
a confidence band around the interval means, floored at a small
relative fraction of the goal.

When goals change in quick succession there are never enough constant
intervals to calibrate the band — the paper explicitly observes this in
the base experiment (the oscillation in Figure 2) — and the tolerance
degrades to the relative floor.
"""

from __future__ import annotations

import math
from typing import List


#: The band never narrows below this fraction of the goal.
RELATIVE_FLOOR = 0.10

#: Stable intervals needed before the band replaces the floor.
MIN_SAMPLES = 3

#: Most recent stable intervals the band is estimated from.
MAX_SAMPLES = 20

#: Normal quantile of the confidence band (~99 %).
CRITICAL = 2.576


class GoalTolerance:
    """Adaptive tolerance band for one goal class."""

    def __init__(self, low_side_slack: float = 0.30):
        if low_side_slack < 0:
            raise ValueError("low-side slack must be non-negative")
        #: Extra slack below the goal.  Exceeding the goal breaks the
        #: SLA (hard); merely being faster than the goal only means the
        #: no-goal class could profit from freed memory (soft), so the
        #: band is asymmetric to avoid give-back/take-back oscillation.
        self.low_side_slack = low_side_slack
        self._samples: List[float] = []

    def record_stable_interval(self, mean_rt: float) -> None:
        """Record an interval mean observed under unchanged conditions."""
        self._samples.append(mean_rt)
        if len(self._samples) > MAX_SAMPLES:
            self._samples.pop(0)

    def reset(self) -> None:
        """Forget calibration (goal changed or buffers repartitioned)."""
        self._samples.clear()

    @property
    def calibrated(self) -> bool:
        """True once enough stable intervals back the estimate."""
        return len(self._samples) >= MIN_SAMPLES

    def tolerance(self, goal_ms: float) -> float:
        """Current tolerance delta in ms for a goal of ``goal_ms``."""
        floor = RELATIVE_FLOOR * goal_ms
        if not self.calibrated:
            return floor
        n = len(self._samples)
        mean = sum(self._samples) / n
        variance = sum((x - mean) ** 2 for x in self._samples) / (n - 1)
        band = CRITICAL * math.sqrt(variance / n)
        return max(floor, band)

    def violated(self, observed_ms: float, goal_ms: float) -> bool:
        """True if ``observed`` deviates from the goal beyond tolerance.

        Deviation in *either* direction triggers reoptimization: above
        the goal the class needs more buffer; below it, dedicated
        memory should be freed for the no-goal class (the LP's equality
        constraint handles both cases).  The band below the goal is
        wider by ``low_side_slack`` (see __init__).
        """
        tol = self.tolerance(goal_ms)
        if observed_ms > goal_ms:
            return observed_ms - goal_ms > tol
        return goal_ms - observed_ms > max(
            tol, self.low_side_slack * goal_ms
        )
