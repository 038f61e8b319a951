"""Unit tests for the CPU, disk, and network device models."""

import pytest

from repro.cluster.config import (
    CpuParameters,
    DiskParameters,
    NetworkParameters,
)
from repro.cluster.cpu import Cpu
from repro.cluster.disk import Disk
from repro.cluster.messages import MessageKind, message_size
from repro.cluster.network import Network
from repro.sim.engine import Environment

from tests.test_cluster_batch import cpu_consume, disk_read


def test_cpu_consume_takes_service_time():
    env = Environment()
    cpu = Cpu(env, CpuParameters(mips=100.0))
    done = []

    def proc():
        yield from cpu_consume(cpu, 100_000)  # 1 ms at 100 MIPS
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [pytest.approx(1.0)]


def test_cpu_requests_queue_fcfs():
    env = Environment()
    cpu = Cpu(env, CpuParameters(mips=100.0))
    done = []

    def proc(name):
        yield from cpu_consume(cpu, 100_000)
        done.append((name, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_disk_read_takes_access_time():
    env = Environment()
    disk = Disk(env, DiskParameters(avg_seek_ms=4.0, avg_rotational_ms=2.0,
                                    transfer_mb_per_s=20.0))
    done = []

    def proc():
        yield from disk_read(disk, 4096)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [pytest.approx(6.2048, rel=1e-3)]
    assert disk.reads == 1
    assert disk.service_stats.mean == pytest.approx(6.2048, rel=1e-3)


def test_disk_contention_queues():
    env = Environment()
    disk = Disk(env, DiskParameters(avg_seek_ms=5.0, avg_rotational_ms=0.0,
                                    transfer_mb_per_s=1000.0))
    done = []

    def proc():
        yield from disk_read(disk, 0)
        done.append(env.now)

    env.process(proc())
    env.process(proc())
    env.run()
    assert done[1] == pytest.approx(10.0, rel=1e-3)
    assert disk.mean_queue_wait == pytest.approx(2.5, rel=1e-3)


def test_network_transfer_accounts_bytes():
    env = Environment()
    net = Network(env, NetworkParameters())

    def proc():
        yield from net.send_message(MessageKind.PAGE_REQUEST)
        yield from net.transfer(
            MessageKind.PAGE_SHIP, message_size(MessageKind.PAGE_SHIP, 4096)
        )

    env.process(proc())
    env.run()
    acc = net.accounting
    assert acc.messages_by_kind[MessageKind.PAGE_REQUEST] == 1
    assert acc.bytes_by_kind[MessageKind.PAGE_SHIP] == message_size(
        MessageKind.PAGE_SHIP, 4096
    )
    assert acc.total_bytes == 64 + 4096 + 64


def test_network_is_shared_medium():
    env = Environment()
    net = Network(env, NetworkParameters(bandwidth_mbit_per_s=100.0,
                                         latency_ms=0.0))
    done = []

    def proc():
        yield from net.transfer(MessageKind.PAGE_SHIP, 12_500)  # 1 ms
        done.append(env.now)

    env.process(proc())
    env.process(proc())
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(2.0)]


def test_account_only_skips_wire_time():
    env = Environment()
    net = Network(env, NetworkParameters())
    net.account_only(MessageKind.AGENT_REPORT)
    assert net.accounting.total_bytes == message_size(
        MessageKind.AGENT_REPORT
    )
    assert env.now == 0.0
