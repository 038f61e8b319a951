"""Unit tests for the system configuration and device parameter math."""

import pytest

from repro.cluster.config import (
    CpuParameters,
    DiskParameters,
    NetworkParameters,
    SystemConfig,
)


def test_defaults_match_paper_environment():
    """§7.1: 3 nodes, 100 MIPS, 100 Mbit/s, 2 MB cache, 2000 x 4 KB pages."""
    config = SystemConfig()
    assert config.num_nodes == 3
    assert config.cpu.mips == 100.0
    assert config.network.bandwidth_mbit_per_s == 100.0
    assert config.node.buffer_bytes == 2 * 1024 * 1024
    assert config.num_pages == 2000
    assert config.page_size == 4096
    assert config.observation_interval_ms == 5000.0


def test_buffer_pages_per_node():
    config = SystemConfig()
    assert config.buffer_pages_per_node == 512


def test_cpu_service_time():
    cpu = CpuParameters(mips=100.0)
    # 100 MIPS = 100_000 instructions per ms.
    assert cpu.service_ms(100_000) == pytest.approx(1.0)
    assert cpu.service_ms(0) == 0.0


def test_cpu_negative_instructions_rejected():
    with pytest.raises(ValueError):
        CpuParameters().service_ms(-1)


def test_disk_access_time_components():
    disk = DiskParameters(
        avg_seek_ms=4.0, avg_rotational_ms=2.0, transfer_mb_per_s=20.0
    )
    # 4 KB at 20 MB/s = 0.2048 ms transfer.
    assert disk.access_ms(4096) == pytest.approx(6.2048, rel=1e-3)


def test_disk_negative_bytes_rejected():
    with pytest.raises(ValueError):
        DiskParameters().access_ms(-1)


def test_network_transfer_time():
    net = NetworkParameters(bandwidth_mbit_per_s=100.0, latency_ms=0.05)
    # 4096 bytes = 32768 bits at 100 bits/us = 0.32768 ms + latency.
    assert net.transfer_ms(4096) == pytest.approx(0.37768, rel=1e-4)


def test_network_zero_bytes_is_latency_only():
    net = NetworkParameters(latency_ms=0.05)
    assert net.transfer_ms(0) == pytest.approx(0.05)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 0},
        {"num_pages": 0},
        {"page_size": 0},
        {"observation_interval_ms": 0.0},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_cost_ordering_local_remote_disk():
    """The storage hierarchy must be priced local < remote < disk."""
    config = SystemConfig()
    remote = config.network.transfer_ms(config.page_size)
    disk = config.disk.access_ms(config.page_size)
    local = config.cpu.service_ms(config.cpu.instructions_buffer_lookup)
    assert local < remote < disk
