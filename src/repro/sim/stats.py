"""Online statistics used by agents, experiments, and reports.

Everything here is incremental (Welford's algorithm) so that agents can
track response times over long runs without storing samples, plus a
small set of batch helpers (confidence intervals, time series) for the
experiment harness.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


class OnlineStats:
    """Incremental mean / variance / extrema (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 for fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)


class WindowStats:
    """Per-observation-interval statistics that can be snapshot and reset.

    Agents use one of these per (class, node): samples accumulate during
    an observation interval; at the interval boundary the coordinator
    snapshots the window and the agent resets it.
    """

    __slots__ = ("window", "lifetime")

    def __init__(self):
        self.window = OnlineStats()
        self.lifetime = OnlineStats()

    def add(self, value: float) -> None:
        """Record a sample in both the window and lifetime statistics."""
        self.window.add(value)
        self.lifetime.add(value)

    def roll(self) -> OnlineStats:
        """Return the finished window and start a new one."""
        finished = self.window
        self.window = OnlineStats()
        return finished


class TimeSeries:
    """An append-only (time, value) series for plots and reports."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at simulation time ``time``."""
        self.times.append(time)
        self.values.append(value)


class P2Quantile:
    """Streaming quantile estimate (Jain & Chlamtac's P² algorithm).

    Tracks one quantile (e.g. the p95 response time) in O(1) memory
    without storing samples: five markers move along the empirical
    distribution using piecewise-parabolic interpolation.  Useful for
    tail-latency goals, which mean-based SLAs (the paper's setting)
    do not capture.
    """

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        self.quantile = quantile
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []
        self.count = 0

    def add(self, value: float) -> None:
        """Fold one sample into the estimate.

        Runs on every operation completion, so the marker lists are
        bound to locals and the marker updates unrolled; the float
        operations and their order are exactly Jain & Chlamtac's (the
        loop form lives on as the test oracle).
        """
        self.count += 1
        heights = self._heights
        if not heights:  # fewer than five samples so far
            initial = self._initial
            initial.append(value)
            if len(initial) == 5:
                initial.sort()
                q = self.quantile
                self._heights = list(initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        positions = self._positions
        desired = self._desired
        increments = self._increments
        # Find the cell and shift the positions of the markers above it.
        if value < heights[0]:
            heights[0] = value
            positions[1] += 1.0
            positions[2] += 1.0
            positions[3] += 1.0
        elif value >= heights[4]:
            heights[4] = value
        elif value < heights[1]:
            positions[1] += 1.0
            positions[2] += 1.0
            positions[3] += 1.0
        elif value < heights[2]:
            positions[2] += 1.0
            positions[3] += 1.0
        elif value < heights[3]:
            positions[3] += 1.0
        positions[4] += 1.0
        desired[0] += increments[0]
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += increments[4]
        # Adjust the three middle markers, in order.
        for i in (1, 2, 3):
            p = positions[i]
            delta = desired[i] - p
            if delta >= 1.0:
                if positions[i + 1] - p <= 1.0:
                    continue
                step = 1.0
            elif delta <= -1.0:
                if positions[i - 1] - p >= -1.0:
                    continue
                step = -1.0
            else:
                continue
            h = heights[i]
            h_lo = heights[i - 1]
            h_hi = heights[i + 1]
            p_lo = positions[i - 1]
            p_hi = positions[i + 1]
            # Piecewise-parabolic prediction...
            candidate = h + step / (p_hi - p_lo) * (
                (p - p_lo + step) * (h_hi - h) / (p_hi - p)
                + (p_hi - p - step) * (h - h_lo) / (p - p_lo)
            )
            if h_lo < candidate < h_hi:
                heights[i] = candidate
            elif step > 0.0:  # ...else linear toward the neighbour
                heights[i] = h + step * (h_hi - h) / (p_hi - p)
            else:
                heights[i] = h + step * (h_lo - h) / (p_lo - p)
            positions[i] = p + step

    @property
    def value(self) -> float:
        """Current quantile estimate (exact until 5 samples exist)."""
        if self.count == 0:
            return 0.0
        if len(self._initial) < 5 or not self._heights:
            ordered = sorted(self._initial)
            index = min(
                int(self.quantile * len(ordered)), len(ordered) - 1
            )
            return ordered[index]
        return self._heights[2]


def mean_confidence_interval(samples: Sequence[float]) -> Tuple[float, float]:
    """Return (mean, half-width) of a 99 % t-based confidence interval.

    Used by the convergence experiments, which replicate until the
    half-width drops below one iteration at 99 % confidence (§7.1).
    """
    from scipy.stats import t as t_dist

    n = len(samples)
    if n == 0:
        return 0.0, math.inf
    mean = sum(samples) / n
    if n == 1:
        return mean, math.inf
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    critical = float(t_dist.ppf(0.995, n - 1))  # two-sided 99 %
    half_width = critical * math.sqrt(variance / n)
    return mean, half_width

