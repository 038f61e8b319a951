"""Per-node buffer manager: dedicated class pools plus the no-goal pool.

Implements the page access protocol of §6:

* Every access updates the page's *accumulated* heat (and the global
  heat registry).
* If a dedicated buffer for the accessing class exists on the node and
  the page is not already cached in *another* dedicated buffer, the
  page is acquired — from the local no-goal buffer (removing it there),
  or via remote cache or disk — its class-specific heat is updated and
  it is inserted into the class's dedicated buffer.  Pages evicted by
  the insertion are removed from the node's cache completely.
* If the page already resides in the class's dedicated buffer, only the
  class-specific heat is updated.
* Without a dedicated buffer for the class, the page is served from /
  inserted into the no-goal buffer.

The manager also owns the node's allocation state: the sizes of the
dedicated pools are set by the goal-oriented coordinators, and the
no-goal pool always receives the remaining reserved memory
(``SIZE_i - sum of dedicated pools``, cf. eq. 7).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bufmgr.base import BufferPool
from repro.bufmgr.costbased import BenefitModel, CostBasedPool
from repro.bufmgr.costs import CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker
from repro.bufmgr.lru import LruPool
from repro.bufmgr.lruk import LrukPool

#: Class id of the no-goal class (§3: "a special No-Goal class,
#: numbered class 0").
NO_GOAL_CLASS = 0


class _ClassHeatView:
    """Adapter exposing one class's slice of the class-heat tracker."""

    __slots__ = ("_tracker", "_class_id")

    def __init__(self, tracker: HeatTracker, class_id: int):
        self._tracker = tracker
        self._class_id = class_id

    def heat(self, page_id: int, now: float) -> float:
        return self._tracker.heat((self._class_id, page_id), now)


class NodeBufferManager:
    """All buffer pools of one node, plus the §6 access protocol."""

    def __init__(
        self,
        node_id: int,
        total_bytes: int,
        page_size: int,
        clock: Callable[[], float],
        global_heat: GlobalHeatRegistry,
        costs: CostObserver,
        is_last_copy: Callable[[int, int], bool],
        policy: str = "cost",
    ):
        if policy not in ("cost", "lru", "lruk"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.node_id = node_id
        self.page_size = page_size
        self.total_pages = total_bytes // page_size
        self.policy = policy
        self.clock = clock
        self.global_heat = global_heat
        self.costs = costs
        self.is_last_copy = is_last_copy

        #: Accumulated heat over *all* local accesses (ranks the
        #: no-goal pool).
        self.accumulated_heat = HeatTracker()
        #: Class-specific heat, keyed (class_id, page_id); entries are
        #: created on demand (§6).
        self.class_heat = HeatTracker()

        self._pools: Dict[int, BufferPool] = {}
        self._where: Dict[int, int] = {}  # page id -> class id of pool
        self._pools[NO_GOAL_CLASS] = self._make_pool(
            NO_GOAL_CLASS, self.total_pages
        )
        self.hits_by_class: Dict[int, int] = {}
        self.misses_by_class: Dict[int, int] = {}
        #: Telemetry pipeline or None (off by default); consulted only
        #: when an eviction batch is non-empty.
        self.telemetry = None

    # -- pool construction -----------------------------------------

    def _make_pool(self, class_id: int, capacity: int) -> BufferPool:
        if self.policy == "lru":
            return LruPool(capacity)
        if self.policy == "lruk":
            return LrukPool(capacity, clock=self.clock)
        if class_id == NO_GOAL_CLASS:
            heat_view = self.accumulated_heat
        else:
            heat_view = _ClassHeatView(self.class_heat, class_id)
        model = BenefitModel(
            node_id=self.node_id,
            local_heat=heat_view,
            global_heat=self.global_heat,
            costs=self.costs,
            is_last_copy=self.is_last_copy,
            clock=self.clock,
        )
        return CostBasedPool(capacity, model)

    # -- allocation API (used by coordinators/agents) ----------------

    def dedicated_bytes(self, class_id: int) -> int:
        """Current dedicated pool size of ``class_id`` in bytes."""
        if class_id == NO_GOAL_CLASS:
            raise ValueError("the no-goal pool is not a dedicated pool")
        pool = self._pools.get(class_id)
        return pool.capacity * self.page_size if pool is not None else 0

    def total_dedicated_bytes(self) -> int:
        """Sum of all dedicated pool sizes in bytes."""
        return sum(
            pool.capacity * self.page_size
            for class_id, pool in self._pools.items()
            if class_id != NO_GOAL_CLASS
        )

    def set_dedicated_bytes(
        self, class_id: int, nbytes: int
    ) -> Tuple[int, List[int]]:
        """Resize the dedicated pool of ``class_id``.

        Grants at most the memory not taken by other dedicated pools
        (the allocation-conflict rule of phase (e): allocate as much as
        possible and report the difference).  Returns
        ``(granted_bytes, dropped_page_ids)``; dropped pages have left
        the node's cache completely.
        """
        if class_id == NO_GOAL_CLASS:
            raise ValueError("cannot set a dedicated size for the no-goal class")
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        requested_pages = nbytes // self.page_size
        other_pages = sum(
            pool.capacity
            for cid, pool in self._pools.items()
            if cid not in (NO_GOAL_CLASS, class_id)
        )
        granted_pages = min(requested_pages, self.total_pages - other_pages)
        dropped: List[int] = []

        pool = self._pools.get(class_id)
        if pool is None:
            if granted_pages > 0:
                pool = self._make_pool(class_id, granted_pages)
                self._pools[class_id] = pool
        else:
            dropped.extend(self._forget(pool.resize(granted_pages)))
            if granted_pages == 0:
                del self._pools[class_id]

        # The no-goal pool absorbs whatever is left (eq. 7).
        no_goal_pages = self.total_pages - other_pages - granted_pages
        no_goal = self._pools[NO_GOAL_CLASS]
        dropped.extend(self._forget(no_goal.resize(no_goal_pages)))
        return granted_pages * self.page_size, dropped

    def has_dedicated(self, class_id: int) -> bool:
        """True if a (non-empty) dedicated buffer for the class exists."""
        pool = self._pools.get(class_id)
        return pool is not None and pool.capacity > 0 \
            and class_id != NO_GOAL_CLASS

    # -- access protocol (§6) ----------------------------------------

    def probe(self, page_id: int, class_id: int) -> Tuple[bool, List[int]]:
        """One local access attempt by an operation of ``class_id``.

        Returns ``(hit, dropped_page_ids)``.  On a hit the §6 movements
        (e.g. promotion from the no-goal pool into the class's dedicated
        pool) have been performed; ``dropped_page_ids`` are pages those
        movements pushed out of the node's cache.  On a miss the caller
        must fetch the page and then call :meth:`admit`.
        """
        now = self.clock()
        self.accumulated_heat.record(page_id, now)
        self.global_heat.record(page_id, now)

        pools = self._pools
        holder = self._where.get(page_id)

        # Dedicated-pool protocol only when some dedicated pool exists
        # at all (len > 1 counts the always-present no-goal pool), which
        # skips two dict probes per access in policy-only runs.
        if len(pools) > 1 and self.has_dedicated(class_id):
            dropped: List[int] = []
            if holder == class_id:
                pools[class_id].touch(page_id)
                self.class_heat.record((class_id, page_id), now)
                self._account(class_id, hit=True)
                return True, dropped
            if holder is not None and holder != NO_GOAL_CLASS:
                # Cached in another class's dedicated buffer: local hit,
                # page stays where it is (§6).
                pools[holder].touch(page_id)
                self._account(class_id, hit=True)
                return True, dropped
            if holder == NO_GOAL_CLASS:
                # Acquire from the local no-goal buffer.
                pools[NO_GOAL_CLASS].remove(page_id)
                del self._where[page_id]
                dropped.extend(self._insert(class_id, page_id))
                self.class_heat.record((class_id, page_id), now)
                self._account(class_id, hit=True)
                return True, dropped
            self._account(class_id, hit=False)
            return False, dropped

        if holder is not None:
            pools[holder].touch(page_id)
            hits = self.hits_by_class
            hits[class_id] = hits.get(class_id, 0) + 1
            return True, []
        misses = self.misses_by_class
        misses[class_id] = misses.get(class_id, 0) + 1
        return False, []

    def admit(self, page_id: int, class_id: int) -> List[int]:
        """Insert a freshly fetched page per §6; returns dropped pages."""
        now = self.clock()
        if self.has_dedicated(class_id):
            target = class_id
            self.class_heat.record((class_id, page_id), now)
        else:
            target = NO_GOAL_CLASS
        return self._insert(target, page_id)

    def clear(self) -> List[int]:
        """Drop every cached page (node restart); returns the drops.

        Pool structure (dedicated sizes) is preserved — the allocation
        table is tiny control state a restarting node reloads — but the
        cache content and all heat bookkeeping are lost.
        """
        dropped = list(self._where)
        for pool in self._pools.values():
            for page_id in list(pool.page_ids()):
                pool.remove(page_id)
        self._where.clear()
        # Clear in place: the pools' benefit models hold references to
        # these trackers.
        self.accumulated_heat.clear()
        self.class_heat.clear()
        return dropped

    def reset_interval_counters(self) -> None:
        """Zero the per-class hit/miss counters (node restart).

        A restarted node's counting state does not survive the crash;
        consumers tracking deltas (the controller's hit-info plumbing)
        must re-baseline at zero.
        """
        self.hits_by_class.clear()
        self.misses_by_class.clear()

    # -- queries -----------------------------------------------------

    def contains(self, page_id: int) -> bool:
        """True if any pool of this node caches the page."""
        return page_id in self._where

    def holding_pool(self, page_id: int) -> Optional[int]:
        """Class id of the pool caching the page, or None."""
        return self._where.get(page_id)

    def cached_pages(self) -> List[int]:
        """All page ids cached on this node."""
        return list(self._where)

    def pool(self, class_id: int) -> Optional[BufferPool]:
        """The pool object for ``class_id`` (None if not present)."""
        return self._pools.get(class_id)

    # -- internals ----------------------------------------------------

    def _insert(self, class_id: int, page_id: int) -> List[int]:
        pool = self._pools.get(class_id)
        if pool is None:
            return [page_id]
        evicted = pool.insert(page_id)
        if page_id not in evicted:
            self._where[page_id] = class_id
        return self._forget(evicted)

    def _forget(self, evicted: List[int]) -> List[int]:
        for page_id in evicted:
            self._where.pop(page_id, None)
        if evicted and self.telemetry is not None:
            self.telemetry.on_evictions(self.node_id, len(evicted))
        return evicted

    def _account(self, class_id: int, hit: bool) -> None:
        if hit:
            self.hits_by_class[class_id] = (
                self.hits_by_class.get(class_id, 0) + 1
            )
        else:
            self.misses_by_class[class_id] = (
                self.misses_by_class.get(class_id, 0) + 1
            )
