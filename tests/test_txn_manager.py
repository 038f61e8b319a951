"""Integration tests for distributed transactions (2PL + WAL + 2PC)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import NodeParameters, SystemConfig
from repro.cluster.messages import MessageKind
from repro.txn.locks import DeadlockError
from repro.txn.manager import TransactionManager, TxnStatus
from repro.txn.recovery import recover_all, recover_node
from repro.txn.wal import LogRecordKind


@pytest.fixture
def cluster():
    config = SystemConfig(
        num_nodes=3,
        num_pages=60,
        node=NodeParameters(buffer_bytes=16 * 4096),
    )
    return Cluster(config, seed=0)


def drive(cluster, generator):
    result = {}

    def proc():
        result["value"] = yield from generator
    cluster.env.process(proc())
    cluster.env.run()
    return result.get("value")


def locked_pages(manager, txn):
    """Pages of the transaction still locked at any node."""
    pages = set(txn.read_set) | set(txn.write_set)
    return {
        page for locks in manager.locks.values() for page in pages
        if locks.holds(txn.txn_id, page)
    }


def test_read_only_transaction_commits_without_2pc(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.read(txn, 5)
        yield from manager.read(txn, 6)
        return (yield from manager.commit(txn))

    assert drive(cluster, work()) is True
    assert txn.status is TxnStatus.COMMITTED
    assert manager.two_phase.commits == 0  # no 2PC needed
    assert not locked_pages(manager, txn)


def test_write_commit_runs_2pc_and_forces_logs(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        # Page 1 is homed at node 1, page 2 at node 2: two participants.
        yield from manager.write(txn, 1, payload="a")
        yield from manager.write(txn, 2, payload="b")
        return (yield from manager.commit(txn))

    assert drive(cluster, work()) is True
    assert manager.two_phase.commits == 1
    # Both participants hold durable COMMIT records.
    assert 1 in manager.logs[1].committed_transactions()
    assert 1 in manager.logs[2].committed_transactions()
    # The updates are redone from the durable logs.
    reports = recover_all(manager.logs)
    assert reports[1].redone_pages == {1: "a"}
    assert reports[2].redone_pages == {2: "b"}


def test_2pc_messages_accounted(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.write(txn, 1, payload="a")
        return (yield from manager.commit(txn))

    drive(cluster, work())
    acc = cluster.network.accounting
    assert acc.messages_by_kind.get(MessageKind.TXN_PREPARE, 0) == 1
    assert acc.messages_by_kind.get(MessageKind.TXN_VOTE, 0) == 1
    assert acc.messages_by_kind.get(MessageKind.TXN_COMMIT, 0) == 1
    assert acc.messages_by_kind.get(MessageKind.TXN_ACK, 0) == 1


def test_no_vote_aborts_globally(cluster):
    manager = TransactionManager(
        cluster, vote_hook=lambda node, txn: node != 1
    )
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.write(txn, 1, payload="a")  # home node 1
        yield from manager.write(txn, 2, payload="b")  # home node 2
        return (yield from manager.commit(txn))

    assert drive(cluster, work()) is False
    assert txn.status is TxnStatus.ABORTED
    assert manager.two_phase.aborts == 1
    # No participant may have a durable COMMIT for the transaction.
    for log in manager.logs.values():
        assert 1 not in log.committed_transactions()
    assert recover_node(manager.logs, 2).redone_pages == {}


def test_locks_released_after_commit(cluster):
    manager = TransactionManager(cluster)
    txn1 = manager.begin(node_id=0)
    txn2 = manager.begin(node_id=1)
    order = []

    def writer1():
        yield from manager.write(txn1, 3, payload="x")
        order.append("t1 locked")
        yield from manager.commit(txn1)
        order.append("t1 committed")

    def writer2():
        yield cluster.env.timeout(0.01)
        yield from manager.write(txn2, 3, payload="y")
        order.append("t2 locked")
        yield from manager.commit(txn2)

    cluster.env.process(writer1())
    cluster.env.process(writer2())
    cluster.env.run()
    assert order == ["t1 locked", "t1 committed", "t2 locked"]
    assert txn2.status is TxnStatus.COMMITTED


def test_commit_invalidates_remote_copies(cluster):
    manager = TransactionManager(cluster)

    # Cache page 5 on node 1 via a plain read access.
    def reader():
        yield from cluster.access_page(1, 5, 0)

    cluster.env.process(reader())
    cluster.env.run()
    assert 1 in cluster.directory.holders(5)

    txn = manager.begin(node_id=0)

    def writer():
        yield from manager.write(txn, 5, payload="new")
        yield from manager.commit(txn)

    cluster.env.process(writer())
    cluster.env.run()
    # Node 1's stale copy is gone; writer's copy remains.
    assert 1 not in cluster.directory.holders(5)
    assert not cluster.nodes[1].buffers.contains(5)
    acc = cluster.network.accounting
    assert acc.messages_by_kind.get(MessageKind.INVALIDATE, 0) >= 1


def test_deadlock_victim_aborts_and_raises(cluster):
    manager = TransactionManager(cluster)
    txn1 = manager.begin(node_id=0)
    txn2 = manager.begin(node_id=0)
    outcome = {}

    # Pages 3 and 6 are both homed at node 0: one lock manager.
    def worker1():
        yield from manager.write(txn1, 3)
        yield cluster.env.timeout(5.0)
        yield from manager.write(txn1, 6)
        yield from manager.commit(txn1)

    def worker2():
        yield from manager.write(txn2, 6)
        yield cluster.env.timeout(10.0)
        try:
            yield from manager.write(txn2, 3)
        except DeadlockError:
            outcome["victim"] = txn2.txn_id

    cluster.env.process(worker1())
    cluster.env.process(worker2())
    cluster.env.run()
    assert outcome["victim"] == txn2.txn_id
    assert txn2.status is TxnStatus.ABORTED
    assert txn1.status is TxnStatus.COMMITTED


def test_operations_on_finished_transaction_rejected(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.read(txn, 5)
        yield from manager.commit(txn)

    drive(cluster, work())
    with pytest.raises(RuntimeError):
        drive(cluster, manager.read(txn, 6))


def test_abort_logs_and_releases(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.write(txn, 3, payload="x")
        yield from manager.abort(txn)

    drive(cluster, work())
    assert txn.status is TxnStatus.ABORTED
    assert not locked_pages(manager, txn)
    kinds = [r.kind for r in manager.logs[0]._records]
    assert LogRecordKind.ABORT in kinds


def test_remote_lock_requests_cross_network(cluster):
    manager = TransactionManager(cluster)
    txn = manager.begin(node_id=0)

    def work():
        yield from manager.read(txn, 1)  # homed at node 1
        yield from manager.commit(txn)

    drive(cluster, work())
    acc = cluster.network.accounting
    assert acc.messages_by_kind.get(MessageKind.LOCK_REQUEST, 0) >= 1
    assert acc.messages_by_kind.get(MessageKind.LOCK_RELEASE, 0) >= 1


def test_many_concurrent_transactions_all_resolve(cluster):
    manager = TransactionManager(cluster)
    done = []

    def worker(i):
        txn = manager.begin(node_id=i % 3)
        try:
            yield from manager.write(txn, (i * 3) % 20, payload=str(i))
            yield from manager.read(txn, (i * 7 + 1) % 40)
            committed = yield from manager.commit(txn)
            done.append(committed)
        except DeadlockError:
            done.append(False)

    for i in range(30):
        cluster.env.process(worker(i))
    cluster.env.run()
    assert len(done) == 30
    assert any(done)  # most should commit
    assert not manager.active  # nothing leaks
