"""Shared-medium LAN model with per-kind traffic accounting."""

from __future__ import annotations

from repro.cluster.config import NetworkParameters
from repro.cluster.messages import MessageKind, TrafficAccounting, message_size
from repro.sim.engine import Environment
from repro.sim.resources import Resource


class Network:
    """The cluster interconnect (§7.1: 100 Mbit/s).

    Modelled as one shared medium: transfers serialize on a single
    resource, so heavy page shipping delays everything else, as on a
    real shared LAN segment.  Every transfer is tagged with a
    :class:`MessageKind` for the §7.5 overhead accounting.
    """

    def __init__(self, env: Environment, params: NetworkParameters):
        self.env = env
        self.params = params
        self.medium = Resource(env)
        self.accounting = TrafficAccounting()
        #: Fault state (:class:`repro.faults.FaultLayer`), attached by
        #: the cluster when a fault schedule is configured; None keeps
        #: the hot path at a single attribute check.
        self.faults = None

    def transfer(self, kind: MessageKind, nbytes: int):
        """Generator: move ``nbytes`` bytes across the network."""
        wire_time = self.params.transfer_ms(nbytes)
        faults = self.faults
        if faults is not None and faults.extra_ms > 0.0:
            # Active latency-spike episode: every transfer pays extra.
            wire_time += faults.extra_ms
        yield from self.medium.occupy(wire_time)
        self.accounting.record(kind, nbytes)

    def send_message(self, kind: MessageKind):
        """Generator: move one message of ``kind`` (standard wire size)."""
        yield from self.transfer(kind, message_size(kind))

    def account_only(self, kind: MessageKind) -> None:
        """Record a message's bytes without simulating wire occupancy.

        Used for fire-and-forget control messages whose wire time is
        irrelevant to response times but whose bytes must be counted in
        the §7.5 overhead study.
        """
        self.accounting.record(kind, message_size(kind))

    def account_many(self, kind: MessageKind, count: int) -> None:
        """Record ``count`` fire-and-forget control messages at once.

        Batched variant of :meth:`account_only` for bursts (e.g. the
        directory unregistering a whole eviction batch) — identical
        ledger totals, one call.
        """
        self.accounting.record_many(kind, message_size(kind), count)

    def send_control(self, kind: MessageKind) -> bool:
        """Account one fire-and-forget control message; report delivery.

        Like :meth:`account_only` (control traffic never occupies the
        wire), but the message is subject to the active loss episode of
        an attached fault layer: the sender's bytes are always counted
        (the message left the NIC), and ``False`` means the receiver
        never saw it.  Without a fault layer every message arrives.
        """
        self.accounting.record(kind, message_size(kind))
        faults = self.faults
        if faults is not None and faults.should_drop():
            return False
        return True

    def utilization(self) -> float:
        """Fraction of elapsed time the medium was busy."""
        return self.medium.utilization()
