"""The distributed feedback loop wired into the simulation.

:class:`GoalOrientedController` instantiates one agent per (class,
node) — including no-goal agents — and one coordinator per goal class,
placed round-robin across the nodes (§5 allows any node; spreading them
balances load).  Every observation interval it runs the five
phases: agents snapshot their windows (a), reports travel to the
coordinators (b) — as network messages when agent and coordinator live
on different nodes, significant-change-filtered as in the paper —
goals are checked (c), violated classes are re-optimized (d), and new
allocations are shipped to the node buffer managers (e), with conflicts
reported back via acknowledgements.

The controller doubles as the workload sink: the generator feeds
arrivals and completions straight into the right agent.

The control plane is itself a fault domain.  When a ``coordcrash`` is
scheduled, the coordinators lose their in-memory state and are dark
until the outage expires; on restart they open a new allocation
*epoch*, re-learn the granted allocations from (reliable, accounted)
agent re-reports, and an anti-entropy sweep reconciles the page
directory.  A ``partition`` cuts nodes off the control network: their
reports fail fast, allocations addressed to them are deferred (stamped
with the epoch they were computed under, rejected at delivery if that
epoch died in the meantime), and a node that misses coordinator
contact for :data:`DEGRADED_AFTER` consecutive intervals enters
*degraded mode* — frozen at its last-acked allocation, running purely
local cost-based replacement — until :data:`REJOIN_AFTER` consecutive
intervals of restored contact rejoin it.  All of this is polled from
the fault layer once per interval and costs nothing when no fault
layer is attached (or no control-plane fault ever fires), so no-fault
runs stay bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bufmgr.manager import NO_GOAL_CLASS
from repro.cluster.cluster import Cluster
from repro.cluster.messages import MessageKind
from repro.core.agent import AgentReport, ClassAgent
from repro.core.coordinator import Coordinator, CoordinatorDecision
from repro.sim.stats import P2Quantile, TimeSeries

#: Quantiles tracked per goal class when telemetry is attached (see
#: :meth:`GoalOrientedController.track_extended_quantiles`), exported
#: as Prometheus ``quantile=`` labels and surfaced in result tables.
EXTENDED_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Measure points older than this many observation intervals age out
#: of a coordinator's window (DESIGN.md §5).
MAX_POINT_AGE_INTERVALS = 40

#: Consecutive intervals without coordinator contact after which a node
#: enters degraded mode (frozen at its last-acked allocation).
DEGRADED_AFTER = 3

#: Consecutive intervals of restored contact that rejoin a degraded
#: node (hysteresis against a flapping link).
REJOIN_AFTER = 2


class ClassSeries:
    """Recorded per-interval series for one goal class."""

    def __init__(self, class_id: int):
        self.class_id = class_id
        self.observed_rt = TimeSeries("observed_rt")
        self.goal = TimeSeries("goal")
        self.dedicated_bytes = TimeSeries("dedicated_bytes")
        self.nogoal_rt = TimeSeries("nogoal_rt")
        self.satisfied: List[bool] = []


class GoalOrientedController:
    """Drives the goal-oriented partitioning inside a cluster simulation."""

    def __init__(self, cluster: Cluster, goals: Dict[int, float]):
        self.cluster = cluster
        self.interval_ms = cluster.config.observation_interval_ms
        n = cluster.num_nodes
        node_sizes = [cluster.config.node.buffer_bytes] * n
        self.coordinators: Dict[int, Coordinator] = {}
        self.coordinator_home: Dict[int, int] = {}
        for class_id, goal_ms in sorted(goals.items()):
            self.coordinators[class_id] = Coordinator(
                class_id=class_id,
                node_sizes=node_sizes,
                goal_ms=goal_ms,
                page_size=cluster.config.page_size,
                max_point_age=MAX_POINT_AGE_INTERVALS * self.interval_ms,
            )
            self.coordinator_home[class_id] = class_id % n
        self.agents: Dict[Tuple[int, int], ClassAgent] = {}
        for class_id in list(goals) + [NO_GOAL_CLASS]:
            for node_id in range(n):
                self.agents[(class_id, node_id)] = ClassAgent(
                    node_id, class_id
                )
        self.series: Dict[int, ClassSeries] = {
            class_id: ClassSeries(class_id) for class_id in goals
        }
        self.interval_index = 0
        self._interval_hooks: List[Callable[["GoalOrientedController", int], None]] = []
        self._started = False
        self._hit_counts: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: Failure-aware loop bookkeeping: agent reports lost on the
        #: wire, allocation exchanges retried, exchanges that stayed
        #: unconfirmed after the retry (their conflicts fold into the
        #: next interval, §5), and node restarts observed.
        self.reports_dropped = 0
        self.allocation_retries = 0
        self.allocation_unconfirmed = 0
        self.restarts_observed = 0
        #: Control-plane fault domain (degraded-mode state machine, see
        #: :data:`DEGRADED_AFTER` and :data:`REJOIN_AFTER`).
        self.degraded: List[bool] = [False] * n
        self._missed = [0] * n
        self._streak = [0] * n
        self._coord_down = False
        self._coord_crashes_seen = 0
        self._cut_prev: frozenset = frozenset()
        #: Allocations addressed to unreachable/degraded nodes, keyed
        #: node -> class -> (epoch, requested bytes); delivered when
        #: the node re-syncs, rejected there if the epoch died.
        self._pending: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: Control-plane fault counters: coordinator outages observed,
        #: reports that failed fast against an unreachable control
        #: plane, allocations deferred for later delivery, deferred
        #: allocations rejected as stale at delivery, and degraded-mode
        #: transitions.
        self.coordinator_crashes = 0
        self.reports_unreachable = 0
        self.allocations_deferred = 0
        self.stale_allocations_rejected = 0
        self.degraded_entries = 0
        self.degraded_exits = 0
        #: Run-wide streaming p95 per goal class, across all nodes
        #: (the per-node agent estimates cannot be merged after the
        #: fact, so the tail is tracked class-globally as well).
        self.class_p95: Dict[int, P2Quantile] = {
            class_id: P2Quantile(0.95) for class_id in goals
        }
        #: Extended quantile tracking (p50/p90/p95/p99), None until
        #: :meth:`track_extended_quantiles` — telemetry attachment —
        #: arms it, so untracked runs pay one ``is None`` check per
        #: completion.  class -> quantile -> P2Quantile.
        self.class_quantiles: Optional[
            Dict[int, Dict[float, P2Quantile]]
        ] = None
        #: Telemetry pipeline or None (off by default, one attribute
        #: check per interval phase when disabled).
        self.telemetry = None
        cluster.add_restart_listener(self._on_node_restart)

    # -- workload sink ------------------------------------------------

    def on_arrival(self, node_id: int, class_id: int, now: float) -> None:
        """Route an arrival to the right local agent."""
        agent = self._agent(class_id, node_id)
        agent.on_arrival(now)

    def on_complete(
        self, node_id: int, class_id: int, response_ms: float, now: float
    ) -> None:
        """Route a completion to the right local agent."""
        agent = self._agent(class_id, node_id)
        agent.on_complete(response_ms, now)
        quantile = self.class_p95.get(class_id)
        if quantile is not None:
            quantile.add(response_ms)
        if self.class_quantiles is not None:
            tracked = self.class_quantiles.get(class_id)
            if tracked is not None:
                for estimator in tracked.values():
                    estimator.add(response_ms)

    def p95_response_ms(self, class_id: int) -> float:
        """Run-wide 95th-percentile response time of a goal class."""
        return self.class_p95[class_id].value

    def track_extended_quantiles(self) -> None:
        """Arm per-class p50/p90/p95/p99 tracking (idempotent).

        Called at telemetry attachment; completions observed from then
        on feed fresh P2 estimators per goal class.  Mutates attributes
        only — no events, no RNG — so a warmed simulation's fingerprint
        is unchanged.
        """
        if self.class_quantiles is None:
            self.class_quantiles = {
                class_id: {q: P2Quantile(q) for q in EXTENDED_QUANTILES}
                for class_id in self.class_p95
            }

    def response_quantiles(
        self, class_id: int
    ) -> Optional[Dict[float, float]]:
        """Extended quantiles for a class, or None when untracked.

        Returns ``{quantile: response_ms}`` for the quantiles in
        :data:`EXTENDED_QUANTILES` once at least one completion has
        been observed since tracking was armed.
        """
        if self.class_quantiles is None:
            return None
        tracked = self.class_quantiles.get(class_id)
        if tracked is None or next(iter(tracked.values())).count == 0:
            return None
        return {q: est.value for q, est in tracked.items()}

    def _agent(self, class_id: int, node_id: int) -> ClassAgent:
        agent = self.agents.get((class_id, node_id))
        if agent is None:
            agent = ClassAgent(node_id, class_id)
            self.agents[(class_id, node_id)] = agent
        return agent

    # -- control -----------------------------------------------------

    def start(self) -> None:
        """Begin the periodic feedback loop (call before env.run)."""
        if self._started:
            raise RuntimeError("controller already started")
        self._started = True
        self.cluster.env.process(self._loop())

    def set_goal(self, class_id: int, goal_ms: float) -> None:
        """Dynamically adjust a class's response time goal."""
        self.coordinators[class_id].set_goal(goal_ms)

    def on_interval(
        self, hook: Callable[["GoalOrientedController", int], None]
    ) -> None:
        """Register a callback run at the end of every interval."""
        self._interval_hooks.append(hook)

    def goal_of(self, class_id: int) -> float:
        """Current goal of ``class_id`` in ms."""
        return self.coordinators[class_id].goal_ms

    # -- failure awareness ----------------------------------------------

    def _on_node_restart(self, node_id: int, now: float) -> None:
        """Cluster callback: a node restarted (cache and counters lost).

        The restarted node's hit/miss counters restart from zero, so
        the delta baselines re-anchor there; every coordinator
        invalidates measure points and remembered reports that predate
        the crash (stale hyperplane fits are the main re-convergence
        killer).
        """
        self.restarts_observed += 1
        for key in self._hit_counts:
            if key[1] == node_id:
                self._hit_counts[key] = (0, 0)
        for coordinator in self.coordinators.values():
            coordinator.on_node_restart(node_id, now)
        # Anti-entropy after any crash: verify (and, were it ever
        # inconsistent, repair) the directory against the actual pools.
        self.cluster.reconcile_directory("node_restart")

    # -- control-plane fault domain -------------------------------------

    def _control_fault_tick(self, now: float) -> Tuple[bool, frozenset]:
        """Poll the fault layer's control-plane state, once per interval.

        Returns ``(coordinator down?, partitioned node set)`` and runs
        the edge transitions: coordinator crash (state wipe) and
        recovery (new epoch, re-reports, reconciliation), partition
        heals (forced re-reports, reconciliation), and the per-node
        degraded-mode state machine.
        """
        faults = self.cluster.faults
        crashes = faults.coord_crashes
        if crashes > self._coord_crashes_seen:
            # One or more crashes since the last tick (possibly shorter
            # than an interval): coordinator memory died at the first.
            self._coord_crashes_seen = crashes
            if not self._coord_down:
                self._coord_down = True
                self.coordinator_crashes += 1
                for coordinator in self.coordinators.values():
                    coordinator.on_coordinator_crash(now)
        coord_down = faults.coordinator_down(now)
        if self._coord_down and not coord_down:
            self._recover_coordinators(now)

        cut = frozenset(faults.partitioned_nodes(now))
        healed = self._cut_prev - cut
        if healed:
            # Reports sent toward the partition never arrived; the
            # healed nodes' agents must re-report, and the directory
            # gets an anti-entropy sweep.
            for node_id in sorted(healed):
                self._force_reports(node_id)
            self.cluster.reconcile_directory("partition_heal")
        self._cut_prev = cut

        # Degraded-mode state machine: enter after DEGRADED_AFTER
        # consecutive intervals without contact, rejoin (hysteresis)
        # after REJOIN_AFTER consecutive intervals with contact.
        telemetry = self.telemetry
        for node_id in range(self.cluster.num_nodes):
            if not coord_down and node_id not in cut:
                self._missed[node_id] = 0
                if self.degraded[node_id]:
                    self._streak[node_id] += 1
                    if self._streak[node_id] >= REJOIN_AFTER:
                        self.degraded[node_id] = False
                        self._streak[node_id] = 0
                        self.degraded_exits += 1
                        if telemetry is not None:
                            telemetry.emit(
                                "degraded_exit", now, node=node_id,
                                contact_streak=REJOIN_AFTER,
                            )
            else:
                self._streak[node_id] = 0
                self._missed[node_id] += 1
                if (
                    not self.degraded[node_id]
                    and self._missed[node_id] >= DEGRADED_AFTER
                ):
                    self.degraded[node_id] = True
                    self.degraded_entries += 1
                    if telemetry is not None:
                        telemetry.emit(
                            "degraded_enter", now, node=node_id,
                            missed_intervals=self._missed[node_id],
                        )
        return coord_down, cut

    def _recover_coordinators(self, now: float) -> None:
        """Coordinator restart protocol: the outage has expired.

        Every node re-reports its granted allocation to the restarted
        coordinator — modelled as a reliable, retransmitting state
        transfer and accounted as one AGENT_REPORT per remote node —
        which adopts it under a fresh epoch.  All agents are forced to
        re-report (the remembered reports died with the old process),
        and an anti-entropy sweep repairs the directory.
        """
        self._coord_down = False
        network = self.cluster.network
        n = self.cluster.num_nodes
        for class_id, coordinator in self.coordinators.items():
            if n > 1:
                network.account_many(MessageKind.AGENT_REPORT, n - 1)
            coordinator.on_coordinator_restart(
                now, self.cluster.dedicated_bytes(class_id)
            )
        for agent in self.agents.values():
            agent.force_report()
        self.cluster.reconcile_directory("coordcrash")
        if self.telemetry is not None:
            epochs = [c.epoch for c in self.coordinators.values()]
            self.telemetry.emit(
                "coord_restart", now, epoch=max(epochs, default=0),
            )

    def _force_reports(self, node_id: int) -> None:
        """Make every agent on ``node_id`` re-report next interval."""
        for (_, nid), agent in self.agents.items():
            if nid == node_id:
                agent.force_report()

    def _drain_pending(self, node_id: int, now: float) -> None:
        """Deliver ALLOCATIONs queued for a node that re-synced.

        Each entry finally traverses the control network; the node's
        agent compares the stamped epoch against the current one (it
        learned the current epoch while re-syncing) and rejects
        dead-epoch messages with a nack — the stale-allocation
        guarantee the chaos harness asserts.
        """
        entries = self._pending.pop(node_id, None)
        if not entries:
            return
        network = self.cluster.network
        telemetry = self.telemetry
        buffers = self.cluster.nodes[node_id].buffers
        for class_id in sorted(entries):
            epoch, req = entries[class_id]
            coordinator = self.coordinators.get(class_id)
            if coordinator is None:
                continue
            if not network.send_control(MessageKind.ALLOCATION):
                continue  # lost on the wire; folds into the next interval
            old = buffers.dedicated_bytes(class_id)
            stale = epoch != coordinator.epoch
            applied = False
            acked = False
            if stale:
                # Dead-epoch message: rejected by the agent, nacked.
                self.stale_allocations_rejected += 1
                network.send_control(MessageKind.ALLOCATION_ACK)
            else:
                granted = self.cluster.apply_node_allocation(
                    class_id, node_id, req
                )
                applied = True
                acked = network.send_control(MessageKind.ALLOCATION_ACK)
                if acked:
                    coordinator.current_allocation[node_id] = float(granted)
                else:
                    self.allocation_unconfirmed += 1
            if telemetry is not None:
                telemetry.emit(
                    "allocation_ship", now, class_id=class_id,
                    node=node_id, requested_bytes=req, previous_bytes=old,
                    local=False, applied=applied, acked=acked,
                    retried=False, deferred=True, stale=stale,
                    epoch=epoch,
                )

    # -- the feedback loop ---------------------------------------------

    def _loop(self):
        env = self.cluster.env
        while True:
            yield env.timeout(self.interval_ms)
            self.interval_index += 1
            now = env.now
            telemetry = self.telemetry

            # Control-plane fault domain: poll coordinator/partition
            # state once per interval.  Without a fault layer this is
            # one attribute check; with one but no control-plane fault
            # scheduled it reads two always-zero fields and draws no
            # randomness, so behavior is unchanged either way.
            coord_down = False
            cut: frozenset = frozenset()
            if self.cluster.faults is not None:
                coord_down, cut = self._control_fault_tick(now)
                if self._pending and not coord_down:
                    # Deliver allocations queued for nodes that have
                    # re-synced (reachable again and not degraded).
                    for node_id in sorted(self._pending):
                        if node_id not in cut and not self.degraded[node_id]:
                            self._drain_pending(node_id, now)

            # Phase (a): every agent closes its observation window.
            reports: Dict[Tuple[int, int], AgentReport] = {}
            for key, agent in self.agents.items():
                reports[key] = agent.snapshot(self.interval_ms, now)

            # Phase (b): ship significant reports to the coordinators.
            # Remote reports ride the (lossy, under faults) control
            # channel; a dropped report simply never arrives and the
            # coordinator evaluates with the reports it has — the agent
            # still considers it sent (it cannot know), so only a
            # further significant change triggers a resend.
            for (class_id, node_id), report in reports.items():
                agent = self.agents[(class_id, node_id)]
                if not agent.significant_change(report):
                    continue
                if coord_down or node_id in cut:
                    # The control plane is unreachable from this node
                    # (coordinator dark, or the node is partitioned):
                    # the send fails fast and the agent knows it, so
                    # nothing is marked reported — contact restoration
                    # forces a re-report anyway.
                    self.reports_unreachable += 1
                    continue
                agent.mark_reported(report)
                if class_id == NO_GOAL_CLASS:
                    for goal_id, coordinator in self.coordinators.items():
                        self._deliver_report(
                            report, class_id, node_id, goal_id,
                            coordinator.receive_nogoal_report, now,
                        )
                elif class_id in self.coordinators:
                    self._deliver_report(
                        report, class_id, node_id, class_id,
                        self.coordinators[class_id].receive_goal_report, now,
                    )

            # Local hit/miss deltas for estimators that need them
            # (e.g. the class-fencing baseline).
            for class_id, coordinator in self.coordinators.items():
                for node in self.cluster.nodes:
                    hits = node.buffers.hits_by_class.get(class_id, 0)
                    misses = node.buffers.misses_by_class.get(class_id, 0)
                    key = (class_id, node.node_id)
                    last_h, last_m = self._hit_counts.get(key, (0, 0))
                    self._hit_counts[key] = (hits, misses)
                    if not coord_down:
                        coordinator.receive_hit_info(
                            node.node_id, hits - last_h, misses - last_m
                        )

            # Phases (c)-(e) per goal class.  A dark coordinator can
            # evaluate nothing; it still logs an outage record so the
            # decision log stays interval-aligned for recovery metrics.
            for class_id, coordinator in self.coordinators.items():
                if coord_down:
                    decision = coordinator.record_outage(now)
                else:
                    other = self._other_dedicated(class_id)
                    decision = coordinator.evaluate(now, other)
                    self._apply(class_id, coordinator, decision, cut)
                self._record(class_id, coordinator, decision, now)

            for hook in self._interval_hooks:
                hook(self, self.interval_index)

            if telemetry is not None:
                telemetry.emit(
                    "interval", now, index=self.interval_index,
                    duration_ms=self.interval_ms,
                )

    def _deliver_report(
        self,
        report: AgentReport,
        class_id: int,
        node_id: int,
        goal_id: int,
        receive: Callable[[AgentReport], None],
        now: float,
    ) -> None:
        """Send one agent report to ``goal_id``'s coordinator.

        Local delivery is reliable; a report from another node rides
        the control channel, where a loss episode can drop it.
        """
        delivered = True
        if self.coordinator_home[goal_id] != node_id:
            delivered = self.cluster.network.send_control(
                MessageKind.AGENT_REPORT
            )
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "agent_report", now, class_id=class_id,
                node=node_id, coordinator_class=goal_id,
                delivered=delivered,
                completions=report.completions,
                mean_response_ms=report.mean_response_ms,
                arrival_rate=report.arrival_rate,
            )
        if delivered:
            receive(report)
        else:
            self.reports_dropped += 1

    def _other_dedicated(self, class_id: int) -> List[int]:
        """Per node: bytes dedicated to goal classes other than this one."""
        return [
            node.buffers.total_dedicated_bytes()
            - node.buffers.dedicated_bytes(class_id)
            for node in self.cluster.nodes
        ]

    def _apply(
        self,
        class_id: int,
        coordinator: Coordinator,
        decision: CoordinatorDecision,
        cut: frozenset = frozenset(),
    ) -> None:
        """Phase (e): ship the allocation with ack/timeout/one-retry.

        Each remote node whose target changed receives an ALLOCATION
        and answers with an ALLOCATION_ACK carrying the granted size
        (which may fall short when another class holds the memory).
        Under an active loss episode either message can vanish; a
        missing ack makes the coordinator resend the ALLOCATION once
        (the node applies idempotently and re-acks).  An exchange that
        stays unconfirmed is left unresolved: the node keeps whatever
        it last applied, the coordinator keeps its previous belief, and
        the discrepancy folds into the next observation interval
        exactly as §5 prescribes — the next measure point simply
        describes the system as it actually is.
        """
        if decision.new_allocation is None:
            return
        requested = [int(b) for b in decision.new_allocation]
        previous = self.cluster.dedicated_bytes(class_id)
        home = self.coordinator_home[class_id]
        network = self.cluster.network
        n = self.cluster.num_nodes
        telemetry = self.telemetry
        now = self.cluster.env.now if telemetry is not None else 0.0

        # One exchange per node: decide what actually reaches each
        # node's local agent, and whether the coordinator hears back.
        effective = list(previous)
        confirmed = [True] * n
        epoch = coordinator.epoch
        for node_id, (req, old) in enumerate(zip(requested, previous)):
            if req == old:
                continue  # nothing to ship, nothing to confirm
            if node_id in cut or self.degraded[node_id]:
                # Partitioned or degraded (frozen at its last-acked
                # allocation): defer delivery, stamped with the epoch
                # the proposal was computed under.  The agent rejects
                # it at delivery if that epoch died in the meantime.
                self._pending.setdefault(node_id, {})[class_id] = (
                    epoch, req
                )
                self.allocations_deferred += 1
                confirmed[node_id] = False
                if telemetry is not None:
                    telemetry.emit(
                        "allocation_ship", now, class_id=class_id,
                        node=node_id, requested_bytes=req,
                        previous_bytes=old, local=False, applied=False,
                        acked=False, retried=False, deferred=True,
                        epoch=epoch,
                    )
                continue
            # A fresh direct ship supersedes anything still queued for
            # this (node, class) from an earlier outage.
            queued = self._pending.get(node_id)
            if queued is not None:
                queued.pop(class_id, None)
                if not queued:
                    del self._pending[node_id]
            if node_id == home:
                effective[node_id] = req  # local, reliable
                if telemetry is not None:
                    telemetry.emit(
                        "allocation_ship", now, class_id=class_id,
                        node=node_id, requested_bytes=req,
                        previous_bytes=old, local=True, applied=True,
                        acked=True, retried=False, deferred=False,
                        epoch=epoch,
                    )
                continue
            retries_before = self.allocation_retries
            applied, acked = self._allocation_exchange(network)
            if applied:
                effective[node_id] = req
            confirmed[node_id] = acked
            if not acked:
                self.allocation_unconfirmed += 1
            if telemetry is not None:
                telemetry.emit(
                    "allocation_ship", now, class_id=class_id,
                    node=node_id, requested_bytes=req, previous_bytes=old,
                    local=False, applied=applied, acked=acked,
                    retried=self.allocation_retries > retries_before,
                    deferred=False, epoch=epoch,
                )

        granted = self.cluster.apply_allocation(class_id, effective)

        # The coordinator's belief: granted sizes where the exchange
        # completed (or nothing was shipped), its previous belief where
        # delivery stayed unconfirmed.
        believed = [
            got if confirmed[node_id]
            else float(coordinator.current_allocation[node_id])
            for node_id, got in enumerate(granted)
        ]
        coordinator.receive_granted(believed)
        if telemetry is not None:
            telemetry.emit(
                "allocation_result", now, class_id=class_id,
                requested=requested,
                granted=[float(g) for g in granted],
                believed=[float(b) for b in believed],
                confirmed=confirmed,
                epoch=epoch,
            )

    def _allocation_exchange(self, network) -> Tuple[bool, bool]:
        """Run one ALLOCATION/ACK exchange; returns (applied, acked)."""
        if network.send_control(MessageKind.ALLOCATION):
            if network.send_control(MessageKind.ALLOCATION_ACK):
                return True, True
            # Ack lost: the coordinator times out and retries; the node
            # re-applies idempotently and re-acks.
            self.allocation_retries += 1
            if network.send_control(MessageKind.ALLOCATION):
                return True, network.send_control(MessageKind.ALLOCATION_ACK)
            return True, False  # first copy applied, never confirmed
        self.allocation_retries += 1
        if network.send_control(MessageKind.ALLOCATION):
            return True, network.send_control(MessageKind.ALLOCATION_ACK)
        return False, False

    def _record(
        self,
        class_id: int,
        coordinator: Coordinator,
        decision: CoordinatorDecision,
        now: float,
    ) -> None:
        series = self.series[class_id]
        if decision.observed_rt is not None:
            series.observed_rt.append(now, decision.observed_rt)
        if decision.observed_nogoal_rt is not None:
            series.nogoal_rt.append(now, decision.observed_nogoal_rt)
        series.goal.append(now, coordinator.goal_ms)
        series.dedicated_bytes.append(
            now, float(sum(coordinator.current_allocation))
        )
        series.satisfied.append(decision.satisfied)
