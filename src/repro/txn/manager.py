"""Transactional page access on top of the cluster substrate.

Combines the pieces Section 3 prescribes for update support —
distributed strict 2PL (locks live at each page's home node), WAL, and
2PC — into a transaction manager usable from simulation processes::

    txn = manager.begin(node_id=0)
    yield from manager.read(txn, page_id=7)
    yield from manager.write(txn, page_id=7, payload="v2")
    committed = yield from manager.commit(txn)

On commit, the protocol forces the logs of every home node of a
written page and invalidates cached copies of the written pages on
*other* nodes (data-shipping copies become stale), keeping the remote
caching layer coherent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Set

from repro.cluster.cluster import Cluster
from repro.cluster.messages import MessageKind
from repro.txn.locks import (
    DeadlockError,
    LockManager,
    LockMode,
    WaitForGraph,
)
from repro.txn.twophase import TwoPhaseCommit
from repro.txn.wal import LogRecordKind, WriteAheadLog


class TxnStatus(Enum):
    """Life-cycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One client transaction, originated at ``origin_node``."""

    txn_id: int
    origin_node: int
    status: TxnStatus = TxnStatus.ACTIVE
    #: Pages read (shared locks held at their homes).
    read_set: Set[int] = field(default_factory=set)
    #: Page -> pending payload (exclusive locks held).
    write_set: Dict[int, Optional[str]] = field(default_factory=dict)
    #: Home nodes where this transaction holds locks.
    lock_sites: Set[int] = field(default_factory=set)

    def is_active(self) -> bool:
        """True while reads/writes are still allowed."""
        return self.status is TxnStatus.ACTIVE


class TransactionManager:
    """Distributed transactions over a :class:`Cluster`."""

    def __init__(self, cluster: Cluster, vote_hook=None):
        self.cluster = cluster
        # One lock table per node (pages locked at their homes), all
        # sharing a wait-for graph so distributed deadlocks are found.
        self.wait_graph = WaitForGraph()
        self.locks: Dict[int, LockManager] = {
            node.node_id: LockManager(cluster.env, self.wait_graph)
            for node in cluster.nodes
        }
        self.logs: Dict[int, WriteAheadLog] = {
            node.node_id: WriteAheadLog(
                cluster.env, node.disk, node.node_id
            )
            for node in cluster.nodes
        }
        self.two_phase = TwoPhaseCommit(
            cluster.network, self.logs, vote_hook=vote_hook
        )
        self._ids = itertools.count(1)
        self.active: Dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0

    # -- life cycle -------------------------------------------------------

    def begin(self, node_id: int) -> Transaction:
        """Start a transaction originating at ``node_id``."""
        txn = Transaction(txn_id=next(self._ids), origin_node=node_id)
        self.active[txn.txn_id] = txn
        return txn

    def read(self, txn: Transaction, page_id: int, class_id: int = 0):
        """Generator: S-lock the page at its home, then fetch it."""
        self._check_active(txn)
        yield from self._lock(txn, page_id, LockMode.SHARED)
        level = yield from self.cluster.access_page(
            txn.origin_node, page_id, class_id
        )
        txn.read_set.add(page_id)
        return level

    def write(
        self,
        txn: Transaction,
        page_id: int,
        payload: Optional[str] = None,
        class_id: int = 0,
    ):
        """Generator: X-lock the page, fetch it, log the update."""
        self._check_active(txn)
        yield from self._lock(txn, page_id, LockMode.EXCLUSIVE)
        level = yield from self.cluster.access_page(
            txn.origin_node, page_id, class_id
        )
        txn.write_set[page_id] = payload
        # WAL rule: the update is logged (buffered) at the page's home
        # before commit can force it.
        home = self.cluster.database.home(page_id)
        self.logs[home].append(
            txn.txn_id, LogRecordKind.UPDATE, page_id=page_id,
            payload=payload,
        )
        return level

    def commit(self, txn: Transaction):
        """Generator: run 2PC; returns True iff the commit succeeded."""
        self._check_active(txn)
        participants = {
            self.cluster.database.home(page_id)
            for page_id in txn.write_set
        }
        if not txn.write_set:
            # Read-only: no 2PC, just release the locks.
            yield from self._release_all(txn)
            txn.status = TxnStatus.COMMITTED
            self.committed += 1
            self.active.pop(txn.txn_id, None)
            return True
        committed = yield from self.two_phase.commit(
            txn.txn_id, txn.origin_node, participants
        )
        if committed:
            yield from self._invalidate_copies(txn)
            txn.status = TxnStatus.COMMITTED
            self.committed += 1
        else:
            txn.status = TxnStatus.ABORTED
            self.aborted += 1
        yield from self._release_all(txn)
        self.active.pop(txn.txn_id, None)
        return committed

    def abort(self, txn: Transaction):
        """Generator: roll the transaction back and release its locks."""
        if txn.status is not TxnStatus.ACTIVE:
            return
        origin_log = self.logs[txn.origin_node]
        origin_log.append(txn.txn_id, LogRecordKind.ABORT)
        yield from self._release_all(txn)
        txn.status = TxnStatus.ABORTED
        self.aborted += 1
        self.active.pop(txn.txn_id, None)

    # -- internals ----------------------------------------------------------

    def _check_active(self, txn: Transaction) -> None:
        if not txn.is_active():
            raise RuntimeError(
                f"transaction {txn.txn_id} is {txn.status.value}"
            )

    def _lock(self, txn: Transaction, page_id: int, mode: LockMode):
        """Acquire the lock at the page's home (message if remote)."""
        home = self.cluster.database.home(page_id)
        if home != txn.origin_node:
            yield from self.cluster.network.send_message(
                MessageKind.LOCK_REQUEST
            )
        try:
            yield from self.locks[home].acquire(
                txn.txn_id, page_id, mode
            )
        except DeadlockError:
            # The requester is the deadlock victim: roll back, then
            # re-raise so the caller can retry the whole transaction.
            yield from self.abort(txn)
            raise
        txn.lock_sites.add(home)

    def _release_all(self, txn: Transaction):
        for node_id in sorted(txn.lock_sites):
            if node_id != txn.origin_node:
                yield from self.cluster.network.send_message(
                    MessageKind.LOCK_RELEASE
                )
            self.locks[node_id].release_all(txn.txn_id)
        txn.lock_sites.clear()

    def _invalidate_copies(self, txn: Transaction):
        """Drop stale cached copies of written pages on other nodes."""
        for page_id in txn.write_set:
            # holders() returns the directory's live set; snapshot (and
            # order deterministically) before unregistering inside the
            # loop.
            holders = sorted(self.cluster.directory.holders(page_id))
            for node_id in holders:
                if node_id == txn.origin_node:
                    continue
                yield from self.cluster.network.send_message(
                    MessageKind.INVALIDATE
                )
                manager = self.cluster.nodes[node_id].buffers
                pool_id = manager.holding_pool(page_id)
                if pool_id is not None:
                    manager.pool(pool_id).remove(page_id)
                    manager._where.pop(page_id, None)
                self.cluster.directory.unregister(page_id, node_id)
