"""CPU model: a single-server FCFS resource with MIPS-based service times."""

from __future__ import annotations

from repro.cluster.config import CpuParameters
from repro.sim.engine import Environment
from repro.sim.resources import Resource


class Cpu:
    """One node's processor.

    Work holds :attr:`resource` for ``instructions / (mips * 1000)`` ms
    (the page-access state machine in :mod:`repro.cluster.cluster`
    charges it that way), queueing FCFS behind other work on the same
    node.
    """

    def __init__(self, env: Environment, params: CpuParameters):
        self.env = env
        self.params = params
        self.resource = Resource(env)
        # Same divisor service_ms uses, precomputed once; dividing by it
        # keeps the float results identical to params.service_ms.
        self._mips_ms = params.mips * 1_000.0
