"""Class fencing baseline (Brown, Carey & Livny, SIGMOD '96).

Class fencing replaces fragment fencing's buffer/response-time
proportionality with two better-founded pieces (§2 of the paper):

1. response time is proportional to the *miss rate*, and
2. the miss rate as a function of buffer size is obtained by *linear
   extrapolation* of previously measured (buffer, hit rate) points —
   convergence is guaranteed while the hit-rate curve is concave
   (proven empirically for common replacement policies in [7]).

This implementation keeps the last measured (total buffer, hit rate)
points and extrapolates the hit-rate slope from the two most recent
distinct ones; the required hit rate follows from the response-time /
miss-rate proportionality, and the resulting total buffer is spread
over the nodes proportionally to arrival rates (the single-server
method lifted to the NOW).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.fragment_fencing import arrival_weights
from repro.core.coordinator import Coordinator
from repro.core.measure import same_allocation


class ClassFencingCoordinator(Coordinator):
    """Coordinator variant using the class-fencing estimator."""

    seed_fraction = 0.2
    #: Floor for the extrapolated hit-rate slope (per byte): guards the
    #: division when two measurements happen to coincide.
    min_slope = 1e-12

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Measured (total_buffer_bytes, hit_rate) history.
        self._hit_points: List[Tuple[float, float]] = []

    # -- measurement --------------------------------------------------------

    def _observe_hit_rate(self) -> None:
        hits = sum(h for h, _ in self.hit_info.values())
        misses = sum(m for _, m in self.hit_info.values())
        total_accesses = hits + misses
        if total_accesses == 0:
            return
        hit_rate = hits / total_accesses
        total_buffer = float(sum(self.current_allocation))
        if self._hit_points and abs(
            self._hit_points[-1][0] - total_buffer
        ) < 1.0:
            # Same partitioning: update the newest measurement.
            self._hit_points[-1] = (total_buffer, hit_rate)
        else:
            self._hit_points.append((total_buffer, hit_rate))
            del self._hit_points[:-8]

    # -- estimator -----------------------------------------------------------

    def _propose(self, rt_goal, upper, now):
        self._observe_hit_rate()
        total = float(sum(self.current_allocation))
        if total <= 0 or len(self._hit_points) < 2:
            proposal = [min(self.seed_fraction * u, u) for u in upper]
            if total > 0 and same_allocation(
                proposal, self.current_allocation
            ):
                proposal = [
                    min(p * 1.5 + self.page_size, u)
                    for p, u in zip(proposal, upper)
                ]
            return proposal, "class-fencing", False

        buffer_now, hit_now = self._hit_points[-1]
        miss_now = 1.0 - hit_now
        # RT proportional to miss rate: required miss rate to meet goal.
        if rt_goal <= 0:
            return None, "class-fencing", False
        target_miss = miss_now * (self.goal_ms / rt_goal)
        target_hit = min(max(1.0 - target_miss, 0.0), 1.0)

        slope = self._hit_slope()
        if slope <= self.min_slope:
            # Flat measurement: fall back to a multiplicative probe.
            factor = 1.5 if rt_goal > self.goal_ms else 0.75
            proposal = [
                min(c * factor, u)
                for c, u in zip(self.current_allocation, upper)
            ]
            return self._damp_shrink(proposal), "class-fencing", False

        new_total = buffer_now + (target_hit - hit_now) / slope
        new_total = max(new_total, 0.0)
        weights = arrival_weights(self.goal_reports, self.num_nodes)
        proposal = [min(new_total * w, u) for w, u in zip(weights, upper)]
        return self._damp_shrink(proposal), "class-fencing", False

    def _hit_slope(self) -> float:
        """Hit-rate gain per byte from the two newest distinct points."""
        (b1, h1), (b2, h2) = self._hit_points[-2], self._hit_points[-1]
        if abs(b2 - b1) < 1.0:
            return 0.0
        return max((h2 - h1) / (b2 - b1), 0.0)
