"""Write-ahead logging for durability.

Section 3 guarantees durability "by the WAL (Write-Ahead-Logging)
principle [4]": every update is logged before the transaction commits,
and the commit itself forces the log to stable storage.  Each node
keeps its own log on its local disk; log appends are buffered in
memory and :meth:`WriteAheadLog.force` writes everything up to a given
LSN sequentially (cheap — no seek).

Recovery (:mod:`repro.txn.recovery`) derives the durable state from
the flushed prefix only (:meth:`WriteAheadLog.durable_records`), so a
node can crash mid-protocol and exactly what survives is redone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Set

from repro.cluster.disk import Disk
from repro.sim.engine import Environment


class LogRecordKind(Enum):
    """Record types of the redo log."""

    UPDATE = "update"
    PREPARE = "prepare"    # 2PC participant is ready to commit
    COMMIT = "commit"
    ABORT = "abort"


#: Approximate on-disk size of one log record in bytes.
LOG_RECORD_BYTES = 96


@dataclass(frozen=True)
class LogRecord:
    """One entry of a node's redo log."""

    lsn: int
    txn_id: int
    kind: LogRecordKind
    page_id: Optional[int] = None
    payload: Optional[str] = None


class WriteAheadLog:
    """A single node's append-only redo log."""

    def __init__(self, env: Environment, disk: Disk, node_id: int):
        self.env = env
        self.disk = disk
        self.node_id = node_id
        self._records: List[LogRecord] = []
        self._next_lsn = 1
        #: Highest LSN known to be on stable storage.
        self.flushed_lsn = 0
        self.forces = 0

    # -- appending ---------------------------------------------------------

    def append(
        self,
        txn_id: int,
        kind: LogRecordKind,
        page_id: Optional[int] = None,
        payload: Optional[str] = None,
    ) -> int:
        """Buffer one record; returns its LSN (not yet durable)."""
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            kind=kind,
            page_id=page_id,
            payload=payload,
        )
        self._records.append(record)
        self._next_lsn += 1
        return record.lsn

    def force(self):
        """Generator: write every buffered record.

        The WAL rule: a transaction's COMMIT (or a participant's
        PREPARE) must be forced before the commit is acknowledged.
        """
        target = self._next_lsn - 1
        pending = target - self.flushed_lsn
        if pending <= 0:
            return
        yield from self.disk.sequential_write(pending * LOG_RECORD_BYTES)
        self.flushed_lsn = max(self.flushed_lsn, target)
        self.forces += 1

    # -- recovery ----------------------------------------------------------

    def durable_records(self) -> List[LogRecord]:
        """The flushed prefix of the log (what survives a crash)."""
        return [r for r in self._records if r.lsn <= self.flushed_lsn]

    def committed_transactions(self) -> Set[int]:
        """Transactions with a durable COMMIT record."""
        return {
            r.txn_id
            for r in self.durable_records()
            if r.kind is LogRecordKind.COMMIT
        }

    def prepared_transactions(self) -> Set[int]:
        """Transactions prepared (in doubt) but not resolved durably."""
        prepared: Set[int] = set()
        for record in self.durable_records():
            if record.kind is LogRecordKind.PREPARE:
                prepared.add(record.txn_id)
            elif record.kind in (LogRecordKind.COMMIT,
                                 LogRecordKind.ABORT):
                prepared.discard(record.txn_id)
        return prepared

    def __len__(self) -> int:
        return len(self._records)
