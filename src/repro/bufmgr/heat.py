"""Heat estimation and dissemination for cost-based replacement.

*Heat* is the access frequency of a page (accesses per time unit),
locally per node and globally across the cluster (§6).  Following the
paper, heat is approximated with the LRU-2 statistic: with the last two
access times recorded, ``heat = 2 / (now - t_2)`` where ``t_2`` is the
second most recent access (``1 / (now - t_1)`` while only one access is
on record).

Bookkeeping is created and deleted on demand: a (class, page) entry
only exists once an operation of that class touched the page, exactly
as §6 prescribes to bound the overhead.

The tracker uses a *columnar* layout: instead of one boxed history
object per key (a tuple or deque), it keeps two parallel
``array('d')`` columns holding the previous and the latest access time,
plus one slot dict mapping keys to column indices.  A slot freed by
``forget`` goes onto a free-list and is reused by the next new key, so
the columns stay bounded by the *peak* number of concurrently tracked
keys no matter how much churn a long run generates.  The arithmetic is
that of a per-key deque of the last two access times
(``n / (now - oldest)``), and every heat value is bit-identical to such
a deque's (the parity oracle in ``tests/test_bufmgr_heat.py``); what
the layout saves is the per-key footprint (16 bytes of column data
instead of a GC-tracked container) and the garbage-collector pressure
at millions of tracked pages.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Hashable, List, Optional

#: Column sentinel: a key whose ``_t0`` column holds NaN has exactly one
#: recorded access (in ``_t1``).  NaN is unreachable as a real access
#: time and is self-identifying via ``x != x``.
_ONE_ACCESS = float("nan")

#: Recorded accesses per page between two dissemination updates.
UPDATE_THRESHOLD = 8


class HeatTracker:
    """LRU-2 heat estimates for a set of keys.

    Keys are arbitrary hashables — a page id for accumulated heat, a
    ``(class_id, page_id)`` pair for class-specific heat.
    """

    __slots__ = ("_slots", "_t0", "_t1", "_free")

    def __init__(self):
        self._slots: Dict[Hashable, int] = {}
        self._t0 = array("d")  # previous access time (NaN: only one)
        self._t1 = array("d")  # latest access time
        self._free: List[int] = []

    def record(self, key: Hashable, now: float) -> None:
        """Register one access to ``key`` at time ``now``."""
        slots = self._slots
        slot = slots.get(key)
        if slot is None:
            free = self._free
            if free:
                slot = free.pop()
                self._t0[slot] = _ONE_ACCESS
                self._t1[slot] = now
            else:
                slot = len(self._t1)
                self._t0.append(_ONE_ACCESS)
                self._t1.append(now)
            slots[key] = slot
        else:
            t1 = self._t1
            self._t0[slot] = t1[slot]
            t1[slot] = now

    def record_slot(self, key: Hashable, now: float) -> int:
        """:meth:`record`, returning the key's column slot.

        Lets :class:`GlobalHeatRegistry` keep its per-page dissemination
        counters in a column parallel to these, without a second key
        lookup.
        """
        slots = self._slots
        slot = slots.get(key)
        if slot is None:
            free = self._free
            if free:
                slot = free.pop()
                self._t0[slot] = _ONE_ACCESS
                self._t1[slot] = now
            else:
                slot = len(self._t1)
                self._t0.append(_ONE_ACCESS)
                self._t1.append(now)
            slots[key] = slot
        else:
            t1 = self._t1
            self._t0[slot] = t1[slot]
            t1[slot] = now
        return slot

    def heat(self, key: Hashable, now: float) -> float:
        """Estimated accesses per time unit for ``key`` (0.0 if unknown)."""
        slot = self._slots.get(key)
        if slot is None:
            return 0.0
        t0 = self._t0[slot]
        if t0 != t0:  # NaN: a single recorded access
            span = now - self._t1[slot]
            if span <= 0.0:
                # All recorded accesses happened "now"; treat as very hot.
                return 1.0
            return 1.0 / span
        span = now - t0
        if span <= 0.0:
            return 2.0
        return 2.0 / span

    def forget(self, key: Hashable) -> None:
        """Delete the bookkeeping for ``key`` (on-demand deletion, §6).

        The key's column slot goes onto the free-list for reuse, so the
        columns never grow past the peak number of tracked keys.
        """
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._free.append(slot)

    def slot_of(self, key: Hashable) -> Optional[int]:
        """Column slot of ``key``, or None if untracked (inspection)."""
        return self._slots.get(key)

    def clear(self) -> None:
        """Drop all bookkeeping (node restart)."""
        self._slots.clear()
        del self._free[:]
        # Recreate instead of truncating: a restart should give the
        # memory back, not keep peak-sized columns alive.
        self._t0 = array("d")
        self._t1 = array("d")

    @property
    def column_slots(self) -> int:
        """Allocated column length (live keys + free-list slots)."""
        return len(self._t1)

    def __len__(self) -> int:
        return len(self._slots)


class GlobalHeatRegistry:
    """Cluster-wide heat, shared by all nodes' cost-based pools.

    The real system uses threshold-based update protocols [27, 26]; the
    simulation keeps the registry exact but invokes ``on_update`` once
    per :data:`UPDATE_THRESHOLD` recorded accesses per page (the cluster
    wires this to HEAT_UPDATE message accounting), so the §7.5 traffic
    accounting reflects the dissemination cost.

    The per-page dissemination counters live in an ``array('i')``
    column parallel to the tracker's time columns (slot-for-slot),
    instead of a dict that holds an entry for nearly every tracked page
    in steady state.
    """

    __slots__ = ("_tracker", "_on_update", "_pending_col", "_pending_n")

    def __init__(self, on_update: Optional[Callable[[], None]] = None):
        self._tracker = HeatTracker()
        self._on_update = on_update
        self._pending_col = array("i")
        self._pending_n = 0

    def record(self, page_id: int, now: float) -> None:
        """Register one access to ``page_id`` anywhere in the cluster."""
        slot = self._tracker.record_slot(page_id, now)
        pend = self._pending_col
        npend = len(pend)
        if slot >= npend:
            # Grow in lockstep with the tracker's columns (newly
            # allocated slots start at a zero counter).
            pend.extend(bytes(4 * (slot + 1 - npend)))
        count = pend[slot] + 1
        if count >= UPDATE_THRESHOLD:
            pend[slot] = 0
            if count > 1:
                self._pending_n -= 1
            if self._on_update is not None:
                self._on_update()
        else:
            pend[slot] = count
            if count == 1:
                self._pending_n += 1

    def heat(self, page_id: int, now: float) -> float:
        """Cluster-wide access rate estimate for ``page_id``."""
        return self._tracker.heat(page_id, now)

    def forget(self, page_id: int) -> None:
        """Delete all bookkeeping for ``page_id`` (on-demand, §6).

        Called from discard paths where heat state is genuinely lost
        (node restart wiping the last cached copy).  Ordinary evictions
        must NOT forget: cluster-wide heat is an access-frequency
        statistic that has to survive transient evictions for the
        last-copy benefit term to mean anything.

        The page's column slot (time columns and pending counter alike)
        is reclaimed through the tracker's free-list.
        """
        pend = self._pending_col
        slot = self._tracker.slot_of(page_id)
        if slot is not None and pend[slot]:
            pend[slot] = 0
            self._pending_n -= 1
        self._tracker.forget(page_id)

    def __len__(self) -> int:
        return len(self._tracker)

    @property
    def pending_count(self) -> int:
        """Pages currently part-way to their next update (inspection)."""
        return self._pending_n
