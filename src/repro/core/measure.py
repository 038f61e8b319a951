"""Measure points and the coordinator's point window (phase (b)).

A *measure point* couples one buffer partitioning (the per-node
dedicated sizes of the goal class) with the response times observed
under it.  The coordinator keeps the ``N + 1`` most recent points whose
difference vectors from the newest point are linearly independent, so
that the hyperplane approximation of phase (d) is always unique.

If a report arrives for an unchanged partitioning, the newest point is
*updated* instead of creating a new one (the paper's distinction
between "creation of a new" and "update of the last measure point").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.gauss import select_independent
from repro.core.hyperplane import Hyperplane, fit_hyperplane

#: Two allocations closer than this many bytes on every node are the
#: same partitioning (the newest point is updated, not added).
SAME_ALLOCATION_ATOL = 0.5


def same_allocation(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` and ``b`` differ by at most ``SAME_ALLOCATION_ATOL``
    bytes on every node (an absolute rule: one page apart is a move at
    any node size)."""
    return all(abs(x - y) <= SAME_ALLOCATION_ATOL for x, y in zip(a, b))


@dataclass(frozen=True)
class MeasurePoint:
    """One (partitioning, observation) pair."""

    #: Per-node dedicated buffer bytes of the goal class (as granted).
    allocation: List[float]
    #: Weighted mean response time of the goal class (eq. 4).
    rt_goal: float
    #: Weighted mean response time of the no-goal class.
    rt_nogoal: float
    #: Simulation time of the observation.
    time: float
    #: Per-node goal-class response times (only needed by the §8
    #: variance-objective extension; None otherwise).
    per_node_rt: Optional[List[float]] = None

    def same_allocation(self, other_alloc: Sequence[float]) -> bool:
        """True if ``other_alloc`` equals this point's allocation to
        within ``SAME_ALLOCATION_ATOL`` bytes per node."""
        return same_allocation(self.allocation, other_alloc)


class MeasureWindow:
    """The retained measure points of one coordinator."""

    def __init__(self, num_nodes: int, max_age: Optional[float] = None,
                 smoothing: float = 0.5):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        self.num_nodes = num_nodes
        #: Weight of the latest observation when updating the newest
        #: point (exponential smoothing damps per-interval noise).
        self.smoothing = smoothing
        #: Raw history, newest first; bounded so stale workload regimes
        #: eventually age out even without allocation changes.
        self.history_limit = 4 * (num_nodes + 1)
        #: Optional absolute age bound (simulation time units).
        self.max_age = max_age
        self._history: List[MeasurePoint] = []
        #: Bumped by every history mutation; with the fresh prefix's
        #: length it keys the cached phase-(b) selection.
        self._version = 0
        self._selection_key: Optional[Tuple[int, int]] = None
        self._selection: List[MeasurePoint] = []

    # -- recording ----------------------------------------------------

    def observe(
        self,
        allocation,
        rt_goal: float,
        rt_nogoal: float,
        time: float,
        per_node_rt=None,
    ) -> None:
        """Fold one observation in (new point or update of the newest)."""
        allocation = [float(b) for b in allocation]
        if len(allocation) != self.num_nodes:
            raise ValueError("one allocation entry per node required")
        if per_node_rt is not None:
            per_node_rt = [float(rt) for rt in per_node_rt]
            if len(per_node_rt) != self.num_nodes:
                raise ValueError("one per-node RT per node required")
        self._version += 1
        if self._history and self._history[0].same_allocation(allocation):
            newest = self._history[0]
            alpha = self.smoothing
            smoothed_nodes = newest.per_node_rt
            if per_node_rt is not None:
                if smoothed_nodes is None:
                    smoothed_nodes = per_node_rt
                else:
                    smoothed_nodes = [
                        (1 - alpha) * old + alpha * new
                        for old, new in zip(smoothed_nodes, per_node_rt)
                    ]
            self._history[0] = replace(
                newest,
                rt_goal=(1 - alpha) * newest.rt_goal + alpha * rt_goal,
                rt_nogoal=(1 - alpha) * newest.rt_nogoal + alpha * rt_nogoal,
                time=time,
                per_node_rt=smoothed_nodes,
            )
        else:
            self._history.insert(
                0,
                MeasurePoint(
                    allocation=allocation,
                    rt_goal=rt_goal,
                    rt_nogoal=rt_nogoal,
                    time=time,
                    per_node_rt=per_node_rt,
                ),
            )
            del self._history[self.history_limit:]

    def invalidate_before(self, time: float) -> int:
        """Drop every point observed before ``time``; return the count.

        Used after a topology event (node crash/restart): points
        recorded under the pre-crash cache state no longer describe the
        system, and a hyperplane fitted through them is the main
        re-convergence killer.  The next intervals rebuild the window
        from post-event observations, exactly as the §5 feedback story
        prescribes.
        """
        before = len(self._history)
        self._version += 1
        self._history = [p for p in self._history if p.time >= time]
        return before - len(self._history)

    def clear(self) -> int:
        """Drop every point; return the count.

        Used when the coordinator process itself crashes: the window
        lives in coordinator memory, so nothing survives — the restarted
        coordinator rebuilds it from post-restart agent re-reports.
        """
        count = len(self._history)
        self._version += 1
        self._history = []
        return count

    def _fresh_count(self, now: Optional[float]) -> int:
        """Length of the history prefix no older than ``max_age``.

        History is newest first and observation times never decrease,
        so the points within ``max_age`` of ``now`` form a prefix.
        """
        if self.max_age is not None and now is not None:
            for count, point in enumerate(self._history):
                if now - point.time > self.max_age:
                    return count
        return len(self._history)

    # -- selection (phase (b)) -----------------------------------------

    def selected_points(self, now: Optional[float] = None) -> List[MeasurePoint]:
        """Newest point plus up to N older, independent-difference points.

        The Gauss selection runs once per window state: the result is
        cached under the mutation counter and the fresh prefix length.
        """
        fresh = self._fresh_count(now)
        key = (self._version, fresh)
        if key != self._selection_key:
            history = self._history[:fresh]
            selection = []
            if history:
                newest = history[0]
                chosen = select_independent(
                    newest.allocation,
                    [p.allocation for p in history[1:]],
                    limit=self.num_nodes,
                )
                selection = [newest] + [history[1 + i] for i in chosen]
            self._selection_key = key
            self._selection = selection
        return list(self._selection)

    def ready(self, now: Optional[float] = None) -> bool:
        """True once N + 1 usable points exist (unique plane fit)."""
        return len(self.selected_points(now)) >= self.num_nodes + 1

    # -- fitting (phase (d)) ---------------------------------------------

    def fit_planes(
        self, now: Optional[float] = None
    ) -> Tuple[Hyperplane, Hyperplane]:
        """Fit (goal-class plane, no-goal plane) from the selected points."""
        points = self.selected_points(now)
        if len(points) < self.num_nodes + 1:
            raise ValueError("not enough independent measure points")
        goal_plane = fit_hyperplane(
            [(p.allocation, p.rt_goal) for p in points]
        )
        nogoal_plane = fit_hyperplane(
            [(p.allocation, p.rt_nogoal) for p in points]
        )
        return goal_plane, nogoal_plane

    def fit_node_planes(self, now: Optional[float] = None):
        """Fit one plane per node's goal-class response time.

        Needed by the §8 variance-objective extension.  Requires every
        selected point to carry per-node response times; raises
        ``ValueError`` otherwise.
        """
        points = self.selected_points(now)
        if len(points) < self.num_nodes + 1:
            raise ValueError("not enough independent measure points")
        if any(p.per_node_rt is None for p in points):
            raise ValueError("points lack per-node response times")
        return [
            fit_hyperplane(
                [(p.allocation, p.per_node_rt[i]) for p in points]
            )
            for i in range(self.num_nodes)
        ]

    # -- introspection -----------------------------------------------------

    @property
    def newest(self) -> Optional[MeasurePoint]:
        """Most recent point, if any."""
        return self._history[0] if self._history else None

    def __len__(self) -> int:
        return len(self._history)
