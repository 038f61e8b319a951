"""Dynamic tuning baseline (Chung, Ferguson, Wang, Nikolaou & Teng '95).

The dynamic tuning algorithm (§2 of the paper) searches for a state in
which the *maximum performance index* — observed over goal response
time, over all classes — is minimal.  It computes the effect of small
changes in the buffer partitioning on the performance index and only
carries out changes that improve the system state.

This implementation performs one greedy step per feedback iteration:

* if the class's performance index exceeds 1 (goal violated), grow the
  dedicated pool by a fixed step on the node where the class arrives
  most (the change most likely to help);
* if the index is comfortably below 1, give one step back;
* each step's effect is validated implicitly by the next interval's
  measurement, so harmful moves are undone by the feedback loop.
"""

from __future__ import annotations

from typing import List

from repro.core.coordinator import Coordinator


class DynamicTuningCoordinator(Coordinator):
    """Coordinator variant making greedy fixed-size adjustments."""

    #: Step size as a fraction of a node's reserved memory.
    step_fraction = 0.10
    #: Give memory back below this performance index.
    release_threshold = 0.6

    def _propose(self, rt_goal, upper, now):
        index = rt_goal / self.goal_ms
        step = self.step_fraction * max(self.node_sizes)
        proposal = list(self.current_allocation)
        rates = self._arrival_rates()
        order = sorted(range(self.num_nodes), key=lambda i: -rates[i])
        if index > 1.0:
            for node_id in order:
                headroom = upper[node_id] - proposal[node_id]
                if headroom >= self.page_size:
                    proposal[node_id] += min(step, headroom)
                    return proposal, "dynamic-tuning", False
            return None, "dynamic-tuning", False
        if index < self.release_threshold:
            for node_id in reversed(order):
                if proposal[node_id] >= self.page_size:
                    proposal[node_id] = max(
                        proposal[node_id] - step, 0.0
                    )
                    return proposal, "dynamic-tuning", False
        return proposal, "dynamic-tuning", False

    def _arrival_rates(self) -> List[float]:
        rates = [0.0] * self.num_nodes
        for node_id, report in self.goal_reports.items():
            rates[node_id] = report.arrival_rate
        return rates
