"""The fault layer (hot-path state) and the injector process.

:class:`FaultLayer` is the tiny mutable object the cluster, network,
and disks consult while faults are configured; when no schedule is
attached the hot paths see a ``None`` and pay a single attribute load.
:class:`FaultInjector` is the simulation process that walks a
:class:`~repro.faults.schedule.FaultSchedule` and applies each event:

- ``crash``: the node's cache, heat bookkeeping, and interval counters
  are wiped via :meth:`~repro.cluster.cluster.Cluster.restart_node`
  (which also notifies the feedback loop), and the node is *down* for
  the configured restart delay — operations initiated there and disk
  reads homed there wait until the node is back, with a cold cache;
- ``netloss``: control messages (agent reports, allocations, acks)
  are dropped with the configured probability for the episode — the
  coordinator simply evaluates with the reports it has;
- ``netdelay``: every network transfer pays extra wire latency for the
  episode;
- ``diskslow``: one node's disk service times are multiplied by the
  configured factor for the episode;
- ``coordcrash``: the coordinator loses its in-memory control state
  and is unreachable for the episode — the controller observes the
  outage at its next interval tick, wipes coordinator state, and on
  expiry restarts it under a fresh allocation epoch (see
  :mod:`repro.core.controller`);
- ``partition``: the listed nodes lose control-plane contact with the
  coordinator and each other for the episode; the data path is
  assumed to reroute and stays reliable.

The coordinator/partition state is *passive*: the layer only records
"down until" timestamps and a crash counter, and the controller polls
them at interval boundaries.  No expiry processes are spawned and no
randomness is consumed, so scheduling control-plane faults perturbs
nothing else.

Message-drop decisions draw from the dedicated ``faults/drops`` stream
*only while a loss episode is active*, so an idle fault layer consumes
no randomness and a run without faults is bit-identical to one with an
empty schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.rng import RandomStreams

#: Stream name for control-message drop decisions.
DROPS_STREAM = "faults/drops"


@dataclass(frozen=True)
class InjectedFault:
    """Ledger entry: one fault that was actually injected."""

    kind: str
    time_ms: float
    node: Optional[int]
    duration_ms: float
    #: Pages dropped by a crash (0 for other kinds).
    dropped_pages: int = 0
    #: Partitioned node set (empty for other kinds).
    nodes: Tuple[int, ...] = ()


class FaultLayer:
    """Mutable fault state consulted by the simulation hot paths."""

    __slots__ = (
        "drop_p",
        "extra_ms",
        "_down_until",
        "_drop_stream",
        "coord_down_until",
        "coord_crashes",
        "_partition_until",
    )

    def __init__(self, rng: RandomStreams):
        #: Control-message drop probability of the active loss episode.
        self.drop_p = 0.0
        #: Extra wire latency of the active delay episode.
        self.extra_ms = 0.0
        self._down_until: Dict[int, float] = {}
        self._drop_stream = rng.stream(DROPS_STREAM)
        #: Simulated time until which the coordinator is unreachable.
        self.coord_down_until = 0.0
        #: Total coordinator crashes injected so far; the controller
        #: compares this against its last-seen count so crashes shorter
        #: than one observation interval still wipe state exactly once.
        self.coord_crashes = 0
        self._partition_until: Dict[int, float] = {}

    # -- network ----------------------------------------------------

    def should_drop(self) -> bool:
        """Decide one control message's fate (seeded; draws only while
        a loss episode is active)."""
        p = self.drop_p
        if p <= 0.0:
            return False
        return self._drop_stream.random() < p

    # -- node availability -------------------------------------------

    def mark_down(self, node_id: int, until_ms: float) -> None:
        """Take a node out of service until ``until_ms``."""
        self._down_until[node_id] = until_ms

    def down_delay(self, node_id: int, now: float) -> float:
        """Remaining downtime of ``node_id`` (0.0 when it is up)."""
        until = self._down_until.get(node_id)
        if until is None:
            return 0.0
        if until <= now:
            del self._down_until[node_id]
            return 0.0
        return until - now

    # -- control plane -----------------------------------------------

    def mark_coordinator_down(self, until_ms: float) -> None:
        """Record a coordinator crash lasting until ``until_ms``."""
        self.coord_crashes += 1
        if until_ms > self.coord_down_until:
            self.coord_down_until = until_ms

    def coordinator_down(self, now: float) -> bool:
        """Is the coordinator unreachable at ``now``?"""
        return now < self.coord_down_until

    def mark_partitioned(
        self, node_ids: Iterable[int], until_ms: float
    ) -> None:
        """Cut the listed nodes off the control network until
        ``until_ms`` (max-merged with any partition already active)."""
        for node_id in node_ids:
            current = self._partition_until.get(node_id, 0.0)
            if until_ms > current:
                self._partition_until[node_id] = until_ms

    def partitioned_nodes(self, now: float) -> Tuple[int, ...]:
        """Sorted node ids currently cut off the control network.
        (Self-clearing: expired entries are removed on query.)"""
        if not self._partition_until:
            return ()
        expired = [
            node_id
            for node_id, until in self._partition_until.items()
            if until <= now
        ]
        for node_id in expired:
            del self._partition_until[node_id]
        return tuple(sorted(self._partition_until))


class FaultInjector:
    """Drives a fault schedule against a running cluster simulation."""

    def __init__(self, cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        self.layer = FaultLayer(cluster.rng)
        #: Every fault injected so far, in injection order (read by the
        #: resilience experiment's recovery metrics).
        self.injected: List[InjectedFault] = []
        self._started = False
        cluster.attach_faults(self.layer)

    def start(self) -> None:
        """Begin the injection process (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.schedule.clauses:
            self.cluster.env.process(self._run())

    # -- the injection process ------------------------------------------

    def _run(self):
        env = self.cluster.env
        events = self.schedule.events(
            self.cluster.rng, self.cluster.num_nodes
        )
        for event in events:
            if event.time_ms > env.now:
                yield env.timeout(event.time_ms - env.now)
            self._inject(event)

    def _inject(self, event: FaultEvent) -> None:
        env = self.cluster.env
        dropped = 0
        if event.kind == "crash":
            dropped = self.cluster.restart_node(event.node)
            if event.restart_delay_ms > 0:
                self.layer.mark_down(
                    event.node, env.now + event.restart_delay_ms
                )
            duration = event.restart_delay_ms
        elif event.kind == "netloss":
            self.layer.drop_p = event.probability
            env.process(self._expire_netloss(event.duration_ms))
            duration = event.duration_ms
        elif event.kind == "netdelay":
            self.layer.extra_ms = event.extra_ms
            env.process(self._expire_netdelay(event.duration_ms))
            duration = event.duration_ms
        elif event.kind == "diskslow":
            disk = self.cluster.nodes[event.node].disk
            disk.fault_factor = event.factor
            env.process(self._expire_diskslow(event.node, event.duration_ms))
            duration = event.duration_ms
        elif event.kind == "coordcrash":
            # Passive: the controller polls coord_down_until at its
            # next interval tick; no expiry process is needed.
            self.layer.mark_coordinator_down(env.now + event.duration_ms)
            duration = event.duration_ms
        elif event.kind == "partition":
            self.layer.mark_partitioned(
                event.nodes, env.now + event.duration_ms
            )
            duration = event.duration_ms
        else:  # pragma: no cover - the parser rejects unknown kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")
        fault = InjectedFault(
            kind=event.kind,
            time_ms=env.now,
            node=event.node,
            duration_ms=duration,
            dropped_pages=dropped,
            nodes=event.nodes,
        )
        self.injected.append(fault)
        telemetry = self.cluster.telemetry
        if telemetry is not None:
            telemetry.on_fault(fault)

    # Episode expiry processes.  Overlapping episodes of the same kind
    # keep the most recent setting while both run; the last expiry
    # returns the system to nominal.

    def _expire_netloss(self, duration_ms: float):
        yield self.cluster.env.timeout(duration_ms)
        self.layer.drop_p = 0.0

    def _expire_netdelay(self, duration_ms: float):
        yield self.cluster.env.timeout(duration_ms)
        self.layer.extra_ms = 0.0

    def _expire_diskslow(self, node_id: int, duration_ms: float):
        yield self.cluster.env.timeout(duration_ms)
        self.cluster.nodes[node_id].disk.fault_factor = 1.0
