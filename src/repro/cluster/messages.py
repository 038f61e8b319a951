"""Message vocabulary and byte accounting for the cluster network.

The overhead study (§7.5) compares the bytes moved by the goal-oriented
control machinery against the total network traffic; to support it,
every transfer is tagged with a :class:`MessageKind` and folded into a
:class:`TrafficAccounting` ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class MessageKind(Enum):
    """What a network transfer carries."""

    # Enum equality is identity, so the identity hash is consistent —
    # and C-level, unlike ``Enum.__hash__`` (a Python call per dict
    # probe).  The accounting ledger hashes kinds on every transfer.
    __hash__ = object.__hash__

    #: Request asking a remote node for a page (data path).
    PAGE_REQUEST = "page_request"
    #: A shipped page (data path).
    PAGE_SHIP = "page_ship"
    #: Page-location directory maintenance (data path).
    DIRECTORY_UPDATE = "directory_update"
    #: Heat/benefit dissemination of the cost-based replacement (data path).
    HEAT_UPDATE = "heat_update"
    #: Distributed 2PL lock request / release (transaction path).
    LOCK_REQUEST = "lock_request"
    LOCK_RELEASE = "lock_release"
    #: Two-phase commit protocol messages (transaction path).
    TXN_PREPARE = "txn_prepare"
    TXN_VOTE = "txn_vote"
    TXN_COMMIT = "txn_commit"
    TXN_ACK = "txn_ack"
    #: Cached-copy invalidation after a committed update.
    INVALIDATE = "invalidate"
    #: Agent -> coordinator measurement report (control path).
    AGENT_REPORT = "agent_report"
    #: Coordinator -> agent new buffer allocation (control path).
    ALLOCATION = "allocation"
    #: Agent -> coordinator allocation-conflict feedback (control path).
    ALLOCATION_ACK = "allocation_ack"


#: Wire sizes in bytes (headers included) for non-page messages.
MESSAGE_BYTES: Dict[MessageKind, int] = {
    MessageKind.PAGE_REQUEST: 64,
    MessageKind.DIRECTORY_UPDATE: 32,
    MessageKind.HEAT_UPDATE: 48,
    MessageKind.LOCK_REQUEST: 48,
    MessageKind.LOCK_RELEASE: 48,
    MessageKind.TXN_PREPARE: 64,
    MessageKind.TXN_VOTE: 32,
    MessageKind.TXN_COMMIT: 64,
    MessageKind.TXN_ACK: 32,
    MessageKind.INVALIDATE: 48,
    MessageKind.AGENT_REPORT: 64,
    MessageKind.ALLOCATION: 64,
    MessageKind.ALLOCATION_ACK: 32,
}

#: Header bytes added on top of the page payload for a page ship.
PAGE_SHIP_HEADER_BYTES = 64

#: Message kinds that belong to the goal-oriented control machinery.
CONTROL_KINDS = frozenset(
    {
        MessageKind.AGENT_REPORT,
        MessageKind.ALLOCATION,
        MessageKind.ALLOCATION_ACK,
    }
)


def message_size(kind: MessageKind, page_size: int = 0) -> int:
    """Wire size in bytes of one message of ``kind``."""
    if kind is MessageKind.PAGE_SHIP:
        return page_size + PAGE_SHIP_HEADER_BYTES
    return MESSAGE_BYTES[kind]


@dataclass
class TrafficAccounting:
    """Running totals of network traffic, split by message kind."""

    bytes_by_kind: Dict[MessageKind, int] = field(default_factory=dict)
    messages_by_kind: Dict[MessageKind, int] = field(default_factory=dict)

    def record(self, kind: MessageKind, nbytes: int) -> None:
        """Account one transfer of ``nbytes`` bytes."""
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + nbytes
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def record_many(self, kind: MessageKind, nbytes: int,
                    count: int) -> None:
        """Account ``count`` transfers of ``nbytes`` bytes each."""
        self.bytes_by_kind[kind] = (
            self.bytes_by_kind.get(kind, 0) + nbytes * count
        )
        self.messages_by_kind[kind] = (
            self.messages_by_kind.get(kind, 0) + count
        )

    @property
    def total_bytes(self) -> int:
        """All bytes that crossed the network."""
        return sum(self.bytes_by_kind.values())

    @property
    def control_bytes(self) -> int:
        """Bytes attributable to the goal-oriented control loop."""
        return sum(
            nbytes
            for kind, nbytes in self.bytes_by_kind.items()
            if kind in CONTROL_KINDS
        )
