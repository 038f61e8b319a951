"""Unit tests for the write-ahead log."""

from repro.cluster.config import DiskParameters
from repro.cluster.disk import Disk
from repro.sim.engine import Environment
from repro.txn.recovery import recover_node
from repro.txn.wal import LogRecordKind, WriteAheadLog

from tests.test_cluster_batch import disk_read


def make_wal():
    env = Environment()
    disk = Disk(env, DiskParameters())
    return env, disk, WriteAheadLog(env, disk, node_id=0)


def run(env, generator):
    env.process(generator)
    env.run()


def test_append_assigns_increasing_lsns():
    _, _, wal = make_wal()
    lsn1 = wal.append(1, LogRecordKind.UPDATE, page_id=5, payload="a")
    lsn2 = wal.append(1, LogRecordKind.COMMIT)
    assert (lsn1, lsn2) == (1, 2)


def test_unflushed_records_are_not_durable():
    _, _, wal = make_wal()
    wal.append(1, LogRecordKind.UPDATE, page_id=5)
    wal.append(1, LogRecordKind.COMMIT)
    assert wal.durable_records() == []
    assert wal.committed_transactions() == set()


def test_force_makes_records_durable():
    env, _, wal = make_wal()
    wal.append(1, LogRecordKind.UPDATE, page_id=5, payload="v1")
    wal.append(1, LogRecordKind.COMMIT)

    def proc():
        yield from wal.force()

    run(env, proc())
    assert wal.flushed_lsn == 2
    assert wal.committed_transactions() == {1}
    assert env.now > 0  # forcing costs simulated time


def test_force_is_idempotent():
    env, _, wal = make_wal()
    wal.append(1, LogRecordKind.COMMIT)

    def proc():
        yield from wal.force()
        before = env.now
        yield from wal.force()  # nothing new: no disk time
        assert env.now == before

    run(env, proc())
    assert wal.forces == 1


def test_sequential_write_cheaper_than_random_read():
    env = Environment()
    disk = Disk(env, DiskParameters())
    times = {}

    def proc():
        start = env.now
        yield from disk_read(disk, 4096)
        times["read"] = env.now - start
        start = env.now
        yield from disk.sequential_write(4096)
        times["write"] = env.now - start

    run(env, proc())
    assert times["write"] < times["read"]


def test_replay_updates_applies_committed_only():
    env, _, wal = make_wal()
    wal.append(1, LogRecordKind.UPDATE, page_id=5, payload="committed")
    wal.append(1, LogRecordKind.COMMIT)
    wal.append(2, LogRecordKind.UPDATE, page_id=6, payload="in-flight")

    def proc():
        yield from wal.force()

    run(env, proc())
    state = recover_node({0: wal}, 0).redone_pages
    assert state == {5: "committed"}


def test_replay_uses_last_committed_payload():
    env, _, wal = make_wal()
    wal.append(1, LogRecordKind.UPDATE, page_id=5, payload="v1")
    wal.append(1, LogRecordKind.COMMIT)
    wal.append(2, LogRecordKind.UPDATE, page_id=5, payload="v2")
    wal.append(2, LogRecordKind.COMMIT)

    def proc():
        yield from wal.force()

    run(env, proc())
    assert recover_node({0: wal}, 0).redone_pages == {5: "v2"}


def test_prepared_transactions_in_doubt():
    env, _, wal = make_wal()
    wal.append(1, LogRecordKind.PREPARE)
    wal.append(2, LogRecordKind.PREPARE)
    wal.append(2, LogRecordKind.COMMIT)
    wal.append(3, LogRecordKind.PREPARE)
    wal.append(3, LogRecordKind.ABORT)

    def proc():
        yield from wal.force()

    run(env, proc())
    assert wal.prepared_transactions() == {1}
