"""Fragment fencing baseline (Brown, Carey, DeWitt & Mehta, VLDB '93).

Fragment fencing sizes a violated class's dedicated buffer by assuming
a *direct proportionality between buffer space and response time*
(§2 of the paper): if the class runs a factor ``rho = RT_obs/RT_goal``
too slow, its buffer is scaled by that factor.  The estimate ignores
the actual miss-rate curve, which is exactly the weakness class
fencing later fixed.

Here the single-server method is lifted to the NOW by scaling the
*total* dedicated memory and distributing it over the nodes in
proportion to the class's arrival rates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.agent import AgentReport
from repro.core.coordinator import Coordinator


def arrival_weights(
    reports: Dict[int, AgentReport], num_nodes: int
) -> List[float]:
    """Per-node shares of the class's arrival rate (even when none)."""
    rates = [0.0] * num_nodes
    for node_id, report in reports.items():
        rates[node_id] = report.arrival_rate
    total = sum(rates)
    if total <= 0:
        return [1.0 / num_nodes] * num_nodes
    return [rate / total for rate in rates]


class FragmentFencingCoordinator(Coordinator):
    """Coordinator variant using the fragment-fencing estimator."""

    #: Initial fraction of each node's memory on the first violation.
    seed_fraction = 0.2
    #: Bounds on the per-iteration scaling factor, as in the original
    #: method's damping of extreme estimates.
    min_scale = 0.5
    max_scale = 3.0

    def _propose(self, rt_goal, upper, now):
        total = float(sum(self.current_allocation))
        if total <= 0:
            proposal = [self.seed_fraction * u for u in upper]
            return proposal, "fragment-fencing", False
        rho = rt_goal / self.goal_ms
        rho = min(max(rho, self.min_scale), self.max_scale)
        new_total = total * rho
        weights = arrival_weights(self.goal_reports, self.num_nodes)
        proposal = [min(new_total * w, u) for w, u in zip(weights, upper)]
        proposal = self._damp_shrink(proposal)
        return proposal, "fragment-fencing", False
