"""Distributed transactions with updates (the §3 extension).

The paper's evaluation is read-only, but §3 describes exactly how
updates fit: distributed two-phase locking for concurrency control,
two-phase commit for distributed atomicity, and write-ahead logging
for durability.  This example runs a transfer-style update workload
(read two pages, write both) concurrently from every node and prints
the transactional outcome: commits, deadlock aborts, 2PC message
traffic, and what the durable logs would recover.

Run::

    python examples/transactional_updates.py
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.cluster.messages import MessageKind
from repro.txn import DeadlockError, TransactionManager, recover_all

NUM_TRANSFERS = 120
HOT_PAGES = 24  # small hot set -> real lock contention


def transfer(cluster, manager, worker_id):
    """One transfer transaction: read+write two hot pages."""
    rng = cluster.rng.stream(f"transfer/{worker_id}")
    node_id = worker_id % cluster.num_nodes
    source = rng.randrange(HOT_PAGES)
    target = (source + 1 + rng.randrange(HOT_PAGES - 1)) % HOT_PAGES
    txn = manager.begin(node_id)
    try:
        yield from manager.read(txn, source)
        yield from manager.read(txn, target)
        yield from manager.write(txn, source, payload=f"t{txn.txn_id}-out")
        yield from manager.write(txn, target, payload=f"t{txn.txn_id}-in")
        yield from manager.commit(txn)
    except DeadlockError:
        pass  # the victim was rolled back by the manager


def main() -> None:
    cluster = Cluster(SystemConfig(), seed=17)
    manager = TransactionManager(cluster)

    def spawner():
        for worker_id in range(NUM_TRANSFERS):
            delay = cluster.rng.exponential("spawn", 20.0)
            yield cluster.env.timeout(delay)
            cluster.env.process(transfer(cluster, manager, worker_id))

    cluster.env.process(spawner())
    cluster.env.run()

    print(f"transactions committed : {manager.committed}")
    print(f"transactions aborted   : {manager.aborted}")
    deadlocks = sum(
        lm.deadlocks_detected for lm in manager.locks.values()
    )
    print(f"deadlocks detected     : {deadlocks}")
    print(f"2PC rounds             : {manager.two_phase.commits} commit, "
          f"{manager.two_phase.aborts} abort")

    acc = cluster.network.accounting
    for kind in (MessageKind.TXN_PREPARE, MessageKind.TXN_COMMIT,
                 MessageKind.LOCK_REQUEST, MessageKind.INVALIDATE):
        print(f"{kind.value:>22} : "
              f"{acc.messages_by_kind.get(kind, 0)} messages")

    # Restart every node from its durable log; a participant that
    # forced PREPARE but not COMMIT learns the outcome from the others.
    print("\ndurable state after simulated crash (redo from WAL):")
    for node_id, report in sorted(recover_all(manager.logs).items()):
        state = report.redone_pages
        sample = dict(sorted(state.items())[:4])
        print(f"  node {node_id}: {len(state)} pages recovered, "
              f"e.g. {sample}")


if __name__ == "__main__":
    main()
