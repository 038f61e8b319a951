"""Strict two-phase locking with deadlock detection.

Section 3 of the paper points to the (distributed) two-phase-locking
protocol [10] for transactional correctness in the presence of
updates.  Each page's lock is managed at its *home* node; a transaction
acquires shared locks for reads and exclusive locks for writes, holds
everything until commit/abort (strict 2PL), and releases in one shot.

Deadlocks are detected eagerly: before a transaction blocks, the
wait-for graph is checked; if waiting would close a cycle, the request
fails with :class:`DeadlockError` and the caller aborts (the requester
is the victim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set

from repro.sim.engine import Environment, Event


class LockMode(Enum):
    """Shared (read) or exclusive (write) page lock."""

    SHARED = "S"
    EXCLUSIVE = "X"


class DeadlockError(Exception):
    """Waiting for this lock would create a wait-for cycle."""

    def __init__(self, txn_id: int, page_id: int):
        super().__init__(
            f"transaction {txn_id} would deadlock on page {page_id}"
        )
        self.txn_id = txn_id
        self.page_id = page_id


@dataclass
class _Waiter:
    txn_id: int
    mode: LockMode
    event: Event


@dataclass
class _LockState:
    holders: Dict[int, LockMode] = field(default_factory=dict)
    queue: List[_Waiter] = field(default_factory=list)


def _compatible(held: LockMode, wanted: LockMode) -> bool:
    return held is LockMode.SHARED and wanted is LockMode.SHARED


class WaitForGraph:
    """txn -> set of txns it waits for.

    One instance may be shared by several :class:`LockManager`\\ s (one
    per node) so that *distributed* deadlocks — cycles spanning lock
    tables on different home nodes — are detected too, as a
    centralized detector would.
    """

    def __init__(self):
        self.edges: Dict[int, Set[int]] = {}

    def would_cycle(self, txn_id: int, blockers: Set[int]) -> bool:
        """Would adding txn -> blockers edges close a cycle?"""
        stack = list(blockers)
        seen: Set[int] = set()
        while stack:
            current = stack.pop()
            if current == txn_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return False

    def add(self, txn_id: int, blockers: Set[int]) -> None:
        """Record that txn waits for every transaction in blockers."""
        self.edges.setdefault(txn_id, set()).update(blockers)

    def remove(self, txn_id: int) -> None:
        """Forget all outgoing wait edges of a (granted/aborted) txn."""
        self.edges.pop(txn_id, None)

    def discard_target(self, txn_id: int) -> None:
        """Remove a finished transaction from every blocker set."""
        for blockers in self.edges.values():
            blockers.discard(txn_id)


class LockManager:
    """Page lock table of one node (pages homed there)."""

    def __init__(self, env: Environment, wait_graph: WaitForGraph):
        self.env = env
        self._locks: Dict[int, _LockState] = {}
        #: Wait-for graph; share one across managers for distributed
        #: deadlock detection.
        self._graph = wait_graph
        #: txn -> page ids it holds locks on (for release_all).
        self._held: Dict[int, Set[int]] = {}
        self.deadlocks_detected = 0

    # -- acquisition -----------------------------------------------------

    def acquire(self, txn_id: int, page_id: int, mode: LockMode):
        """Generator: block until the lock is granted.

        Raises :class:`DeadlockError` (without blocking) if waiting
        would close a wait-for cycle.
        """
        state = self._locks.setdefault(page_id, _LockState())
        if self._grantable(state, txn_id, mode):
            self._grant(state, txn_id, page_id, mode)
            return
        blockers = self._blockers(state, txn_id, mode)
        if self._graph.would_cycle(txn_id, blockers):
            self.deadlocks_detected += 1
            raise DeadlockError(txn_id, page_id)
        waiter = _Waiter(txn_id, mode, Event(self.env))
        state.queue.append(waiter)
        self._graph.add(txn_id, blockers)
        try:
            yield waiter.event
        finally:
            self._graph.remove(txn_id)

    def _grantable(
        self, state: _LockState, txn_id: int, mode: LockMode
    ) -> bool:
        held = state.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # already strong enough
            # Upgrade S -> X: only if we are the sole holder.
            return len(state.holders) == 1
        if not state.holders:
            # FIFO fairness: do not jump over earlier waiters.
            return not state.queue
        if mode is LockMode.SHARED and not state.queue:
            return all(
                _compatible(m, mode) for m in state.holders.values()
            )
        return False

    def _grant(
        self, state: _LockState, txn_id: int, page_id: int, mode: LockMode
    ) -> None:
        held = state.holders.get(txn_id)
        if held is None or mode is LockMode.EXCLUSIVE:
            state.holders[txn_id] = mode
        self._held.setdefault(txn_id, set()).add(page_id)

    def _blockers(
        self, state: _LockState, txn_id: int, mode: LockMode
    ) -> Set[int]:
        blockers = {t for t in state.holders if t != txn_id}
        blockers |= {w.txn_id for w in state.queue if w.txn_id != txn_id}
        return blockers

    # -- release ----------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Strict 2PL: drop every lock of ``txn_id`` and wake waiters."""
        pages = self._held.pop(txn_id, set())
        for page_id in pages:
            state = self._locks.get(page_id)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            self._wake(state, page_id)
            if not state.holders and not state.queue:
                del self._locks[page_id]
        # Remove txn from other transactions' blocker sets.
        self._graph.discard_target(txn_id)

    def _wake(self, state: _LockState, page_id: int) -> None:
        while state.queue:
            waiter = state.queue[0]
            compatible = not state.holders or (
                waiter.mode is LockMode.SHARED
                and all(
                    _compatible(m, waiter.mode)
                    for m in state.holders.values()
                )
            ) or (
                # Upgrade: sole holder is the waiter itself.
                list(state.holders) == [waiter.txn_id]
            )
            if not compatible:
                break
            state.queue.pop(0)
            state.holders[waiter.txn_id] = waiter.mode
            self._held.setdefault(waiter.txn_id, set()).add(page_id)
            waiter.event.succeed()
            if waiter.mode is LockMode.EXCLUSIVE:
                break

    # -- introspection -----------------------------------------------------

    def holds(self, txn_id: int, page_id: int) -> bool:
        """True if ``txn_id`` holds any lock on ``page_id``."""
        state = self._locks.get(page_id)
        return bool(state and txn_id in state.holders)
