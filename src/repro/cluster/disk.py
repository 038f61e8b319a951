"""Disk model: FCFS single-arm SCSI disk with analytic service times."""

from __future__ import annotations

from repro.cluster.config import DiskParameters
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.sim.stats import OnlineStats


class Disk:
    """One node's local disk.

    Each page read holds :attr:`resource` (the arm) for
    ``params.access_ms`` — seek + rotation + transfer, times
    :attr:`fault_factor` — and counts into :attr:`reads` and
    :attr:`service_stats` (the page-access state machine in
    :mod:`repro.cluster.cluster` charges it that way); concurrent
    requests queue FCFS, so disk contention emerges naturally under
    load.
    """

    def __init__(self, env: Environment, params: DiskParameters):
        self.env = env
        self.params = params
        self.resource = Resource(env)
        self.reads = 0
        self.writes = 0
        self.service_stats = OnlineStats()
        #: Service-time multiplier of an active slowdown episode (set
        #: and restored by :class:`repro.faults.FaultInjector`).
        self.fault_factor = 1.0

    def sequential_write(self, nbytes: int):
        """Generator: append ``nbytes`` sequentially (log writes).

        Sequential appends skip the seek: only rotational latency plus
        transfer is charged, which is why forcing the WAL is far
        cheaper than a random page read.
        """
        transfer = (
            nbytes / (self.params.transfer_mb_per_s * 1_000_000.0) * 1_000.0
        )
        service = self.params.avg_rotational_ms + transfer
        if self.fault_factor != 1.0:
            service *= self.fault_factor
        yield from self.resource.occupy(service)
        self.writes += 1
        self.service_stats.add(service)

    def utilization(self) -> float:
        """Fraction of elapsed time the disk arm was busy."""
        return self.resource.utilization()

    @property
    def mean_queue_wait(self) -> float:
        """Mean time requests spent waiting for the arm."""
        return self.resource.mean_wait
