"""Local agents: the collect phase (a) of the feedback loop.

One agent exists per class per node (goal classes *and* the no-goal
class, §5).  Each agent records the inter-arrival rate and the mean
response time of its class's operations on its node over the current
observation interval.  To keep message traffic low, an agent only
reports to the coordinator when the observed values changed
significantly since its last report; the coordinator remembers the most
recently received information from every agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.stats import P2Quantile, WindowStats

#: Relative change in mean RT or arrival rate that counts as
#: "significant" and triggers a report.
REPORT_THRESHOLD = 0.05


@dataclass(frozen=True)
class AgentReport:
    """One agent's measurements for one observation interval."""

    node_id: int
    class_id: int
    #: Operations that arrived during the interval.
    arrivals: int
    #: Operations that completed during the interval.
    completions: int
    #: Mean response time of the completed operations (ms).
    mean_response_ms: float
    #: Arrival rate lambda_{k,i} in operations per ms.
    arrival_rate: float
    #: End time of the interval.
    time: float


class ClassAgent:
    """Collects per-interval statistics for one (class, node) pair."""

    def __init__(self, node_id: int, class_id: int):
        self.node_id = node_id
        self.class_id = class_id
        self._arrivals = 0
        self._window = WindowStats()
        #: Streaming tail-latency estimate over the whole run.
        self._p95 = P2Quantile(0.95)
        self._last_reported: Optional[AgentReport] = None
        self.reports_sent = 0

    # -- collect phase ---------------------------------------------------

    def on_arrival(self, now: float) -> None:
        """An operation of this agent's class arrived on its node."""
        self._arrivals += 1

    def on_complete(self, response_ms: float, now: float) -> None:
        """An operation completed with the given response time."""
        self._window.add(response_ms)
        self._p95.add(response_ms)

    # -- interval boundary -------------------------------------------------

    def snapshot(self, interval_ms: float, now: float) -> AgentReport:
        """Close the current interval and return its measurements."""
        window = self._window.roll()
        arrivals = self._arrivals
        self._arrivals = 0
        return AgentReport(
            node_id=self.node_id,
            class_id=self.class_id,
            arrivals=arrivals,
            completions=window.count,
            mean_response_ms=window.mean,
            arrival_rate=arrivals / interval_ms if interval_ms > 0 else 0.0,
            time=now,
        )

    def significant_change(self, report: AgentReport) -> bool:
        """Does ``report`` differ enough from the last one sent?"""
        last = self._last_reported
        if last is None:
            return True
        if report.completions == 0 and last.completions == 0:
            return False
        return (
            _rel_change(report.mean_response_ms, last.mean_response_ms)
            > REPORT_THRESHOLD
            or _rel_change(report.arrival_rate, last.arrival_rate)
            > REPORT_THRESHOLD
        )

    def mark_reported(self, report: AgentReport) -> None:
        """Remember ``report`` as the coordinator's view of this agent."""
        self._last_reported = report
        self.reports_sent += 1

    def force_report(self) -> None:
        """Forget what the coordinator knows; the next snapshot is
        always significant.

        Anti-entropy hook: after a coordinator restart (its remembered
        reports are gone) or a partition heal (reports sent into the
        partition never arrived), the significant-change filter would
        otherwise suppress exactly the re-reports the coordinator needs
        to rebuild its view.
        """
        self._last_reported = None

    @property
    def lifetime_mean_response_ms(self) -> float:
        """Mean response time over the whole run."""
        return self._window.lifetime.mean

    @property
    def lifetime_completions(self) -> int:
        """Operations completed over the whole run."""
        return self._window.lifetime.count

    @property
    def lifetime_p95_response_ms(self) -> float:
        """Streaming 95th-percentile response time over the whole run."""
        return self._p95.value


def _rel_change(new: float, old: float) -> float:
    base = max(abs(new), abs(old))
    if base == 0.0:
        return 0.0
    return abs(new - old) / base
