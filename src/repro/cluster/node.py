"""One workstation of the NOW: CPU, local disk, and buffer manager."""

from __future__ import annotations

from typing import Optional

from repro.bufmgr.manager import NodeBufferManager
from repro.cluster.config import SystemConfig
from repro.cluster.cpu import Cpu
from repro.cluster.disk import Disk
from repro.sim.engine import Environment


class Node:
    """A network node with reserved buffer memory (§3)."""

    def __init__(self, node_id: int, env: Environment, config: SystemConfig):
        self.node_id = node_id
        self.env = env
        self.config = config
        self.cpu = Cpu(env, config.cpu)
        self.disk = Disk(env, config.disk)
        #: Installed by the cluster once the directory exists.
        self.buffers: Optional[NodeBufferManager] = None
