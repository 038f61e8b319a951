"""Per-class coordinator: phases (b), (c), (d) of the feedback loop.

The coordinator of a goal class k

* remembers the most recent report of every class-k agent and every
  no-goal agent (phase (b)), folding them into measure points,
* checks the weighted mean response time against the goal within the
  adaptive tolerance (phase (c)),
* on a violation, computes a new partitioning of class k's local
  buffers (phase (d)) — by hyperplane approximation and linear
  programming once N + 1 independent measure points exist, and by the
  warm-up heuristic before that.

The warm-up heuristic starts from a fixed fraction of each node's
unclaimed memory and then perturbs one node per iteration (in rotation)
so that every new partitioning yields a new linearly independent
measure point, exactly as §5(b) requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.agent import AgentReport
from repro.core.hyperplane import (
    Hyperplane,
    SingularFitError,
    regularize_plane,
    weighted_mean_response_time,
)
from repro.core.lp import PartitioningProblem, solve_partitioning
from repro.core.measure import MeasureWindow, same_allocation
from repro.core.tolerance import GoalTolerance
from repro.telemetry.ring import RingLog

#: The warm-up heuristic's first proposal: this fraction of each
#: node's unclaimed memory.
WARMUP_FRACTION = 0.25

#: Each later warm-up step moves one node by this fraction of its
#: buffer, so every proposal adds an independent measure point.
WARMUP_STEP = 0.125

@dataclass
class CoordinatorDecision:
    """Outcome of one feedback-loop iteration for one class."""

    #: Weighted mean RT observed this interval (None: no completions).
    observed_rt: Optional[float]
    #: Observed no-goal weighted mean RT (None: no completions).
    observed_nogoal_rt: Optional[float]
    #: True when the goal was met within tolerance (no action taken).
    satisfied: bool
    #: Requested new per-node allocation in bytes, or None.
    new_allocation: Optional[List[float]] = None
    #: Which mechanism produced the allocation: 'lp', 'warmup', or None.
    mechanism: Optional[str] = None
    #: True if the LP needed the relaxed (minimum-deviation) fallback.
    relaxed: bool = False


@dataclass(frozen=True)
class DecisionRecord:
    """One entry of a coordinator's decision log (for debugging)."""

    time: float
    observed_rt: Optional[float]
    goal_ms: float
    satisfied: bool
    mechanism: Optional[str]
    allocation_total: float


@dataclass
class _WarmupState:
    started: bool = False
    axis: int = 0


class Coordinator:
    """Coordinator process state for one goal class."""

    def __init__(
        self,
        class_id: int,
        node_sizes: List[int],
        goal_ms: float,
        page_size: int = 4096,
        tolerance: Optional[GoalTolerance] = None,
        max_point_age: Optional[float] = None,
        settle_intervals: int = 1,
        shrink_damping: float = 0.5,
    ):
        if not 0.0 < shrink_damping <= 1.0:
            raise ValueError("shrink damping must lie in (0, 1]")
        if class_id <= 0:
            raise ValueError("coordinators exist for goal classes only")
        self.class_id = class_id
        self.node_sizes = [float(size) for size in node_sizes]
        self.num_nodes = len(node_sizes)
        self.goal_ms = goal_ms
        self.page_size = page_size
        self.tolerance = tolerance if tolerance is not None else GoalTolerance()
        self.window = MeasureWindow(self.num_nodes, max_age=max_point_age)
        #: Most recent report per class-k agent (phase (b) memory).
        self.goal_reports: Dict[int, AgentReport] = {}
        #: Most recent report per no-goal agent.
        self.nogoal_reports: Dict[int, AgentReport] = {}
        #: Granted allocation currently in force (bytes per node).
        self.current_allocation = [0.0] * self.num_nodes
        #: Per-node (hits, misses) of the last interval (for baselines).
        self.hit_info: Dict[int, tuple] = {}
        self._warmup = _WarmupState()
        #: Intervals to wait after a repartitioning before trusting
        #: measurements again (the caches need to adapt to the new
        #: pool sizes before the response times are meaningful).
        self.settle_intervals = settle_intervals
        self._settle = 0
        #: 'nogoal' (the paper's objective, eq. 9) or 'variance' (the
        #: §8 future-work objective: even per-node response times).
        self.objective = "nogoal"
        #: Fraction of a proposed *reduction* applied per iteration.
        #: The response surface is convex, so linear extrapolation
        #: overshoots when giving memory back; damping the shrink keeps
        #: the feedback loop stable (growth stays undamped).
        self.shrink_damping = shrink_damping
        self.optimizations = 0
        self.lp_solves = 0
        #: Measure points invalidated by topology events, and how many
        #: node restarts this coordinator has been told about.
        self.invalidated_points = 0
        self.restarts_seen = 0
        #: Allocation epoch: bumped on every coordinator restart.  Every
        #: shipped ALLOCATION is stamped with the epoch it was computed
        #: under; agents reject messages from a dead epoch, so a
        #: restarted coordinator's stale in-flight proposals can never
        #: be applied (see docs/faults.md, "Allocation epochs").
        self.epoch = 0
        #: Coordinator process crashes survived (epoch bumps).
        self.crashes = 0
        #: Bounded audit of every evaluate() outcome: a true ring that
        #: evicts its oldest entry once the cap is reached.
        self.decision_log = RingLog(512)
        #: Telemetry pipeline or None (off by default); every decision,
        #: measure point, plane fit, and LP solve is mirrored into its
        #: structured trace when attached.
        self.telemetry = None

    def _log_decision(
        self, now: float, decision: "CoordinatorDecision"
    ) -> "CoordinatorDecision":
        allocation = (
            decision.new_allocation
            if decision.new_allocation is not None
            else self.current_allocation
        )
        allocation_total = float(sum(allocation))
        self.decision_log.append(
            DecisionRecord(
                time=now,
                observed_rt=decision.observed_rt,
                goal_ms=self.goal_ms,
                satisfied=decision.satisfied,
                mechanism=decision.mechanism,
                allocation_total=allocation_total,
            )
        )
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "decision", now,
                class_id=self.class_id,
                observed_rt=decision.observed_rt,
                observed_nogoal_rt=decision.observed_nogoal_rt,
                goal_ms=self.goal_ms,
                satisfied=decision.satisfied,
                mechanism=decision.mechanism,
                relaxed=decision.relaxed,
                allocation_total=allocation_total,
                new_allocation=(
                    [float(b) for b in decision.new_allocation]
                    if decision.new_allocation is not None else None
                ),
            )
        return decision

    # -- phase (b): collect ------------------------------------------------

    def receive_goal_report(self, report: AgentReport) -> None:
        """Fold in a class-k agent report (coordinator remembers it)."""
        self.goal_reports[report.node_id] = report

    def receive_nogoal_report(self, report: AgentReport) -> None:
        """Fold in a no-goal agent report."""
        self.nogoal_reports[report.node_id] = report

    def receive_granted(self, granted: List[int]) -> None:
        """Record the allocation actually granted by the node agents.

        Granted sizes may fall short of the request when another class
        already reserved the memory (phase (e)); the coordinator simply
        updates its information and lets the next feedback iteration
        react.
        """
        self.current_allocation = [float(b) for b in granted]

    def set_goal(self, goal_ms: float) -> None:
        """Install a new response time goal (dynamic goal adjustment)."""
        if goal_ms <= 0:
            raise ValueError("goal must be positive")
        self.goal_ms = goal_ms
        self.tolerance.reset()

    def on_node_restart(self, node_id: int, now: float) -> None:
        """React to a node crash/restart (topology event).

        Measure points recorded before the event describe a cache state
        that no longer exists — a hyperplane fitted through them points
        the LP at a stale response surface, which is the main
        re-convergence killer.  The window is invalidated, the crashed
        node's remembered reports and hit info are forgotten, and the
        tolerance recalibrates; everything rebuilds from post-crash
        observations, exactly as the §5 feedback story prescribes.
        """
        self.invalidated_points += self.window.invalidate_before(now)
        self.goal_reports.pop(node_id, None)
        self.nogoal_reports.pop(node_id, None)
        self.hit_info.pop(node_id, None)
        self.tolerance.reset()
        self._settle = 0
        self.restarts_seen += 1

    def on_coordinator_crash(self, now: float) -> None:
        """The coordinator process itself died: wipe in-memory state.

        Everything phase (b) accumulated lives in coordinator memory —
        the measure window, the remembered agent reports, hit info, and
        the warm-up cursor — so a crash loses all of it.  Lifetime
        experiment counters (optimizations, lp_solves, the decision
        log) survive: they are experimenter bookkeeping, not
        coordinator state.
        """
        self.invalidated_points += self.window.clear()
        self.goal_reports.clear()
        self.nogoal_reports.clear()
        self.hit_info.clear()
        self._warmup = _WarmupState()
        self._settle = 0
        self.tolerance.reset()
        self.crashes += 1

    def on_coordinator_restart(self, now: float, granted: List[int]) -> None:
        """The coordinator came back: open a new epoch and re-learn.

        ``granted`` is the allocation actually in force on the node
        agents (re-reported after the restart); the restarted
        coordinator adopts it as its belief instead of trusting
        anything written before the crash.  The epoch bump makes every
        pre-crash ALLOCATION message permanently rejectable.
        """
        self.epoch += 1
        self.current_allocation = [float(b) for b in granted]

    def record_outage(self, now: float) -> CoordinatorDecision:
        """Log a coordinator-dark interval.

        Recovery metrics index the decision log per interval, so
        intervals during which the coordinator was down must still
        produce a record — observed nothing, satisfied nothing.
        """
        return self._log_decision(now, CoordinatorDecision(
            observed_rt=None,
            observed_nogoal_rt=None,
            satisfied=False,
            mechanism="coord_down",
        ))

    # -- phases (c) + (d): check and optimize --------------------------------

    def evaluate(
        self, now: float, other_dedicated: List[int]
    ) -> CoordinatorDecision:
        """Run one check/optimize iteration.

        ``other_dedicated[i]`` is the memory on node i currently held by
        *other* goal classes, defining the upper bounds of eq. 6.
        """
        rt_goal = self._weighted_rt(self.goal_reports)
        rt_nogoal = self._weighted_rt(self.nogoal_reports)
        if rt_goal is None:
            # No class-k operation finished anywhere: nothing to check.
            return self._log_decision(now, CoordinatorDecision(
                observed_rt=None,
                observed_nogoal_rt=rt_nogoal,
                satisfied=True,
            ))
        if self._settle > 0:
            # Caches are still adapting to the previous repartitioning:
            # report satisfaction but neither record a measure point
            # nor trigger another optimization.
            self._settle -= 1
            return self._log_decision(now, CoordinatorDecision(
                observed_rt=rt_goal,
                observed_nogoal_rt=rt_nogoal,
                satisfied=not self.tolerance.violated(rt_goal, self.goal_ms),
            ))
        points_before = len(self.window)
        self.window.observe(
            self.current_allocation,
            rt_goal,
            rt_nogoal if rt_nogoal is not None else 0.0,
            now,
            per_node_rt=self._per_node_rts(rt_goal),
        )
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "measure_point", now,
                class_id=self.class_id,
                action=(
                    "new" if len(self.window) > points_before else "update"
                ),
                allocation=[float(b) for b in self.current_allocation],
                rt_goal=rt_goal,
                rt_nogoal=rt_nogoal,
                points_retained=len(self.window),
            )
        if not self.tolerance.violated(rt_goal, self.goal_ms):
            self.tolerance.record_stable_interval(rt_goal)
            return self._log_decision(now, CoordinatorDecision(
                observed_rt=rt_goal,
                observed_nogoal_rt=rt_nogoal,
                satisfied=True,
            ))

        self.optimizations += 1
        upper = [
            max(size - float(other), 0.0)
            for size, other in zip(self.node_sizes, other_dedicated)
        ]
        allocation, mechanism, relaxed = self._propose(rt_goal, upper, now)
        if allocation is None:
            mechanism = "warmup"
            allocation = self._warmup_proposal(rt_goal, upper)
        allocation = self._round_to_pages(allocation, upper)
        if same_allocation(allocation, self.current_allocation):
            # Proposal equals the current state: nudge along the warm-up
            # axis so the next interval still yields a new, linearly
            # independent measure point.
            allocation = self._round_to_pages(
                self._warmup_proposal(rt_goal, upper), upper
            )
            mechanism = "warmup"
            if same_allocation(allocation, self.current_allocation):
                return self._log_decision(now, CoordinatorDecision(
                    observed_rt=rt_goal,
                    observed_nogoal_rt=rt_nogoal,
                    satisfied=False,
                ))
        self.tolerance.reset()
        if mechanism == "lp" and sum(allocation) > sum(
            self.current_allocation
        ):
            # Growth needs cache refill time before measurements mean
            # anything; a pure shrink takes effect immediately (pages
            # are dropped synchronously), so no settling is required.
            # Warm-up exploration also skips settling: its points are
            # rough by design and cold-start speed matters more.
            self._settle = self.settle_intervals
        return self._log_decision(now, CoordinatorDecision(
            observed_rt=rt_goal,
            observed_nogoal_rt=rt_nogoal,
            satisfied=False,
            new_allocation=allocation,
            mechanism=mechanism,
            relaxed=relaxed,
        ))

    # -- helpers ---------------------------------------------------------

    def _weighted_rt(self, reports: Dict[int, AgentReport]) -> Optional[float]:
        """Arrival-rate-weighted mean RT over nodes (eq. 4).

        Returns None when the retained reports carry no usable signal:
        no completions anywhere, or completions whose interval saw zero
        arrivals (an idle class during a fault window).  The zero-rate
        guard matters: eq. 4 would otherwise degenerate to an observed
        RT of 0.0 ms and trigger a bogus below-goal repartitioning.
        """
        with_data = [
            r for r in reports.values() if r.completions > 0
        ]
        if not with_data:
            return None
        if not any(r.arrival_rate > 0.0 for r in with_data):
            return None
        return weighted_mean_response_time(
            [r.mean_response_ms for r in with_data],
            [r.arrival_rate for r in with_data],
        )

    def _propose(self, rt_goal, upper, now):
        """Produce (allocation | None, mechanism, relaxed).

        The goal-oriented method fits hyperplanes and solves the LP;
        baseline subclasses override this with their own estimators.
        """
        if not self.window.ready(now):
            return None, "warmup", False
        allocation, relaxed = self._optimize(rt_goal, upper, now)
        if allocation is None:
            return None, "warmup", False
        return self._damp_shrink(allocation), "lp", relaxed

    def receive_hit_info(self, node_id: int, hits: int, misses: int) -> None:
        """Per-interval local hit/miss counts (used by baselines)."""
        self.hit_info[node_id] = (hits, misses)

    def _per_node_rts(self, fallback: float) -> List[float]:
        """Per-node mean RTs from the latest reports (fallback fills)."""
        rts = [fallback] * self.num_nodes
        for node_id, report in self.goal_reports.items():
            if report.completions > 0:
                rts[node_id] = report.mean_response_ms
        return rts

    def _optimize(self, rt_goal, upper, now):
        """Phase (d): fit hyperplanes and solve the LP."""
        if self.objective == "variance":
            return self._optimize_variance(upper, now)
        telemetry = self.telemetry
        try:
            goal_plane, nogoal_plane = self.window.fit_planes(now)
        except (SingularFitError, ValueError) as exc:
            if telemetry is not None:
                telemetry.emit(
                    "plane_fit", now, class_id=self.class_id,
                    status="singular", detail=str(exc),
                    points_retained=len(self.window),
                )
            return None, False
        if telemetry is not None:
            # The Gauss elimination verdict: which retained points made
            # it into the fit as linearly independent.
            selected = self.window.selected_points(now)
            telemetry.emit(
                "plane_fit", now, class_id=self.class_id, status="ok",
                points_retained=len(self.window),
                points_selected=len(selected),
                selected_times=[float(p.time) for p in selected],
                goal_coefficients=[
                    float(c) for c in goal_plane.coefficients
                ],
                goal_intercept=float(goal_plane.intercept),
                nogoal_coefficients=[
                    float(c) for c in nogoal_plane.coefficients
                ],
                nogoal_intercept=float(nogoal_plane.intercept),
            )
        newest = self.window.newest
        goal_plane = regularize_plane(
            goal_plane, sign=-1, anchor=(newest.allocation, newest.rt_goal)
        )
        if goal_plane is None:
            # Every fitted slope says "more buffer slows the class
            # down" — the fit is noise; explore instead.
            if telemetry is not None:
                telemetry.emit(
                    "plane_reject", now, class_id=self.class_id,
                    plane="goal", reason="all slopes non-improving",
                )
            return None, False
        nogoal_plane = regularize_plane(
            nogoal_plane, sign=1,
            anchor=(newest.allocation, newest.rt_nogoal),
        )
        if nogoal_plane is None:
            # Degenerate no-goal fit: minimize total dedicated memory
            # instead (frees as much as possible for the no-goal class).
            scale = sum(abs(c) for c in goal_plane.coefficients) / len(
                goal_plane.coefficients
            )
            nogoal_plane = Hyperplane(
                coefficients=[scale] * self.num_nodes,
                intercept=0.0,
            )
        problem = PartitioningProblem(
            goal_plane=goal_plane,
            nogoal_plane=nogoal_plane,
            rt_goal=self.goal_ms,
            upper_bounds=upper,
        )
        solution = solve_partitioning(problem)
        self.lp_solves += 1
        if telemetry is not None:
            telemetry.emit(
                "lp_solve", now, class_id=self.class_id,
                status="relaxed" if solution.relaxed else "optimal",
                objective=float(solution.predicted_nogoal_rt),
                predicted_goal_rt=float(solution.predicted_goal_rt),
                allocation=solution.allocation,
            )
        return solution.allocation, solution.relaxed

    def _optimize_variance(self, upper, now):
        """Phase (d), §8 extension: minimize cross-node RT deviation."""
        from repro.core.variance import (
            VarianceProblem,
            solve_variance_partitioning,
        )

        try:
            node_planes = self.window.fit_node_planes(now)
        except (SingularFitError, ValueError):
            return None, False
        newest = self.window.newest
        regularized = []
        for i, plane in enumerate(node_planes):
            anchor_rt = (
                newest.per_node_rt[i]
                if newest.per_node_rt is not None else newest.rt_goal
            )
            fixed = regularize_plane(
                plane, sign=-1, anchor=(newest.allocation, anchor_rt)
            )
            if fixed is None:
                return None, False
            regularized.append(fixed)
        weights = [
            self.goal_reports[i].arrival_rate
            if i in self.goal_reports else 0.0
            for i in range(self.num_nodes)
        ]
        if sum(weights) <= 0:
            weights = [1.0] * self.num_nodes
        problem = VarianceProblem(
            node_planes=tuple(regularized),
            weights=weights,
            rt_goal=self.goal_ms,
            upper_bounds=upper,
        )
        solution = solve_variance_partitioning(problem)
        if solution is None:
            return None, False
        self.lp_solves += 1
        return solution.allocation, solution.relaxed

    def _warmup_proposal(
        self, rt_goal: float, upper: List[float]
    ) -> List[float]:
        """Exploratory allocations until N + 1 measure points exist."""
        if not self._warmup.started:
            self._warmup.started = True
            return [WARMUP_FRACTION * u for u in upper]
        proposal = list(self.current_allocation)
        too_slow = rt_goal > self.goal_ms
        for _ in range(self.num_nodes):
            axis = self._warmup.axis % self.num_nodes
            self._warmup.axis += 1
            step = WARMUP_STEP * max(upper[axis], self.node_sizes[axis])
            delta = step if too_slow else -step
            candidate = min(max(proposal[axis] + delta, 0.0), upper[axis])
            if abs(candidate - proposal[axis]) >= self.page_size:
                proposal[axis] = candidate
                return proposal
            # Clamped to no movement: try the opposite direction.
            candidate = min(max(proposal[axis] - delta, 0.0), upper[axis])
            if abs(candidate - proposal[axis]) >= self.page_size:
                proposal[axis] = candidate
                return proposal
        return proposal

    def _damp_shrink(self, proposal: List[float]) -> List[float]:
        """Apply only part of a proposed reduction (see shrink_damping)."""
        current = self.current_allocation
        if sum(proposal) >= sum(current):
            return proposal
        damping = self.shrink_damping
        return [c + damping * (p - c) for p, c in zip(proposal, current)]

    def _round_to_pages(
        self, allocation: List[float], upper: List[float]
    ) -> List[float]:
        """Clip ``allocation`` into ``[0, upper]``, then round each
        entry to whole pages (half to even)."""
        page = self.page_size
        return [
            float(round(min(max(b, 0.0), u) / page) * page)
            for b, u in zip(allocation, upper)
        ]
