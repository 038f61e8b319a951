"""Configuration dataclasses for the NOW (network of workstations) substrate.

The defaults reproduce the experimental environment of §7.1 of the
paper: 3 nodes at 100 MIPS connected by a 100 Mbit/s network, one SCSI
disk and 2 MB of cache memory per node, and a database of 2000 pages of
4 KB distributed round-robin over the nodes' disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Number of bytes in one simulated page (§7.1: 4 KByte pages).
DEFAULT_PAGE_SIZE = 4096


@dataclass(frozen=True)
class CpuParameters:
    """A node CPU, modelled by instruction throughput.

    The paper's nodes run at 100 MIPS; per-event instruction budgets
    are small constants typical of buffer-manager code paths.
    """

    mips: float = 100.0
    #: Instructions for a buffer lookup / hash probe.
    instructions_buffer_lookup: int = 2_000
    #: Instructions to process (copy/fix) one page after it arrives.
    instructions_page_handling: int = 5_000
    #: Instructions to send or receive one network message.
    instructions_message: int = 3_000

    def service_ms(self, instructions: float) -> float:
        """Milliseconds of CPU time for ``instructions`` instructions."""
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        return instructions / (self.mips * 1_000.0)


@dataclass(frozen=True)
class DiskParameters:
    """A SCSI disk: seek + rotational delay + transfer.

    The defaults model a fast disk with an effective on-drive cache
    (short average positioning time); together with the 100 Mbit/s
    network they put simulated response times into the same few-ms band
    as the paper's Figure 2.
    """

    avg_seek_ms: float = 4.0
    avg_rotational_ms: float = 2.0
    transfer_mb_per_s: float = 20.0

    def access_ms(self, nbytes: int) -> float:
        """Total service time for one request of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        transfer = nbytes / (self.transfer_mb_per_s * 1_000_000.0) * 1_000.0
        return self.avg_seek_ms + self.avg_rotational_ms + transfer


@dataclass(frozen=True)
class NetworkParameters:
    """A shared-medium LAN (§7.1: 100 Mbit/s transfer rate)."""

    bandwidth_mbit_per_s: float = 100.0
    latency_ms: float = 0.05

    def transfer_ms(self, nbytes: int) -> float:
        """Wire time (latency + serialization) for ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        bits = nbytes * 8.0
        return self.latency_ms + bits / (self.bandwidth_mbit_per_s * 1_000.0)


@dataclass(frozen=True)
class NodeParameters:
    """Per-node memory reservation (§7.1: 2 MB of cache space)."""

    buffer_bytes: int = 2 * 1024 * 1024


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of the simulated system."""

    num_nodes: int = 3
    page_size: int = DEFAULT_PAGE_SIZE
    num_pages: int = 2000
    cpu: CpuParameters = field(default_factory=CpuParameters)
    disk: DiskParameters = field(default_factory=DiskParameters)
    network: NetworkParameters = field(default_factory=NetworkParameters)
    node: NodeParameters = field(default_factory=NodeParameters)
    #: Length of one observation interval in ms (§7.1: 5000 ms).
    observation_interval_ms: float = 5000.0

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.num_pages < 1:
            raise ValueError("need at least one page")
        if self.page_size < 1:
            raise ValueError("page size must be positive")
        if self.observation_interval_ms <= 0:
            raise ValueError("observation interval must be positive")

    @property
    def buffer_pages_per_node(self) -> int:
        """How many page frames fit into one node's reserved memory."""
        return self.node.buffer_bytes // self.page_size
