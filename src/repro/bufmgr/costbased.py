"""Cost-based benefit replacement (Sinnwell & Weikum, ICDE '97; §6).

The *benefit* of a cached page is the difference in expected access
cost between keeping the page locally and dropping it:

- While another cached copy exists somewhere, dropping the page turns
  future local hits into remote-cache accesses, so the benefit is
  ``local_heat * (cost_remote - cost_local)``.
- If the local copy is the **last** cached copy in the system, dropping
  it additionally forces *every* node's future accesses to disk, adding
  ``global_heat * (cost_disk - cost_remote)``.

This balances egoistic (local hit rate) and altruistic (global hit
rate) behaviour through the measured cost ratios.  The pool keeps pages
ranked by benefit and evicts the page with the lowest benefit.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable

from repro.bufmgr.base import BufferPool
from repro.bufmgr.costs import CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker

#: Cheapest heap candidates re-priced at each eviction.
REVALIDATE = 8

#: The heap is compacted once it holds more than
#: ``2 * len(pool) + HEAP_SLACK`` entries, checked wherever it gains an
#: entry: admission and a falling estimate on a hit.  A pool that only
#: hits never pops its stale entries, so without the check on push its
#: heap would grow without bound.
HEAP_SLACK = 32


class BenefitModel:
    """Everything needed to price a cached page on one node.

    The two cost spreads are read from the observer's plain per-level
    mean slots at every pricing: every page access moves one of the
    means, so a cache of the spreads would miss on nearly every call.
    """

    __slots__ = ("node_id", "local_heat", "global_heat", "costs",
                 "_is_last_copy", "clock")

    def __init__(
        self,
        node_id: int,
        local_heat: HeatTracker,
        global_heat: GlobalHeatRegistry,
        costs: CostObserver,
        is_last_copy: Callable[[int, int], bool],
        clock: Callable[[], float],
    ):
        self.node_id = node_id
        self.local_heat = local_heat
        self.global_heat = global_heat
        self.costs = costs
        self._is_last_copy = is_last_copy
        self.clock = clock

    def benefit(self, page_id: int) -> float:
        """Expected cost saved per time unit by keeping ``page_id``."""
        return self.benefit_at(page_id, self.clock())

    def benefit_at(self, page_id: int, now: float) -> float:
        """:meth:`benefit` priced at an explicit ``now``.

        Simulated time is frozen while an eviction runs, so a victim
        scan pricing :data:`REVALIDATE` candidates can read the clock
        once and share it — the values are exactly those ``benefit`` would
        return.  Both spreads are clamped at zero.
        """
        costs = self.costs
        remote = costs.cost_remote
        keep = remote - costs.cost_local  # local hits become remote
        value = self.local_heat.heat(page_id, now) * (
            keep if keep > 0.0 else 0.0
        )
        if self._is_last_copy(page_id, self.node_id):
            last_copy = costs.cost_disk - remote  # every node goes to disk
            value += self.global_heat.heat(page_id, now) * (
                last_copy if last_copy > 0.0 else 0.0
            )
        return value


class CostBasedPool(BufferPool):
    """Pool evicting the page with the lowest current benefit.

    Mirrors the paper's implementation, which keeps pages in a priority
    queue ordered by benefit.  Benefits drift as heat and measured
    costs change, so the queue holds *estimates*; at eviction time the
    :data:`REVALIDATE` lowest candidates are re-priced and the cheapest
    fresh one is evicted.  This bounds the per-eviction work to
    O(REVALIDATE · log n) instead of a full O(n) re-scan while staying
    very close to the exact minimum.

    Hits are O(1) in the common case: ``touch`` refreshes the page's
    price in a flat dict instead of unconditionally pushing a freshly
    priced heap entry per hit.  When the estimate grew (the usual
    outcome — fresher heat), the existing heap entry sits at a price
    below the new estimate, so the page still surfaces no later than
    it should; :meth:`_select_victim` re-syncs such drifted entries
    lazily at the next eviction.  Only a *shrinking* estimate needs an
    immediate push, because a stale higher-priced entry would otherwise
    hide the page from eviction.  Any run of price-raising hits between
    evictions thus costs at most one deferred heap operation, and the
    heap stays near one live entry per page instead of one per hit —
    while the estimates that drive victim selection are the exact
    touch-time prices the eager scheme maintained, so replacement
    decisions are unchanged (up to ties between float-identical
    benefits, where only the insertion-order tie-break can differ).
    """

    __slots__ = ("model", "_pages", "_heap", "_seq", "_price")

    def __init__(self, capacity: int, model: BenefitModel):
        super().__init__(capacity)
        self.model = model
        self._pages: Dict[int, int] = {}  # page id -> newest entry seq
        self._heap: list = []             # (benefit, seq, page id)
        self._seq = 0
        self._price: Dict[int, float] = {}  # page id -> latest estimate

    def _push_priced(self, page_id: int, benefit: float) -> None:
        self._price[page_id] = benefit
        self._seq += 1
        self._pages[page_id] = self._seq
        heapq.heappush(self._heap, (benefit, self._seq, page_id))

    def _select_victim(self) -> int:
        """Re-price the :data:`REVALIDATE` cheapest candidates, evict one.

        Each candidate is priced exactly once: the fresh benefit drives
        both the victim comparison and the re-push of the survivors, so
        no page is priced twice within one eviction.  The candidate
        scan pops heap entries with the heap/dict bindings hoisted —
        this loop runs once per eviction, which at a high miss rate
        means once per access.
        """
        model = self.model
        benefit_at = model.benefit_at
        now = model.clock()
        heap = self._heap
        pages = self._pages
        price = self._price
        pages_get = pages.get
        pop = heapq.heappop
        candidates = []
        limit = min(REVALIDATE, len(pages))
        for _ in range(limit):
            # Drop superseded entries, re-sync price-drifted ones (the
            # page was touched since the entry was pushed) at the
            # current estimate, stop at a live current-estimate entry.
            while True:
                entry = pop(heap)
                page_id = entry[2]
                if pages_get(page_id) != entry[1]:
                    continue
                current = price[page_id]
                if current != entry[0]:
                    self._push_priced(page_id, current)
                    continue
                break
            candidates.append((benefit_at(page_id, now), page_id))
        best = min(candidates)
        victim = best[1]
        push_priced = self._push_priced
        for entry in candidates:
            if entry[1] != victim:
                push_priced(entry[1], entry[0])
        # The victim stays indexed until _discard removes it; restore
        # its entry so state is consistent even if the caller keeps it.
        push_priced(victim, best[0])
        return victim

    def insert(self, page_id: int) -> list:
        """Specialized :meth:`BufferPool.insert` for the miss path.

        Identical decisions to the generic version; the membership and
        length steps hit ``_pages`` directly instead of going through
        abstract-method dispatches per admitted page.
        """
        pages = self._pages
        if page_id in pages:
            self.touch(page_id)
            return []
        capacity = self._capacity
        if capacity == 0:
            return [page_id]
        evicted = []
        while len(pages) >= capacity:
            victim = self._select_victim()
            self._discard(victim)
            evicted.append(victim)
        self._store(page_id)
        return evicted

    def _store(self, page_id: int) -> None:
        self._push_priced(page_id, self.model.benefit(page_id))
        self._bound_heap()

    def _discard(self, page_id: int) -> None:
        del self._pages[page_id]
        del self._price[page_id]

    def _bound_heap(self) -> None:
        """Compact the heap once it exceeds the :data:`HEAP_SLACK` bound.

        Compaction drops superseded entries, leaving one per cached
        page.  It is decision-neutral: entries are totally ordered by
        ``(benefit, seq)``, so the live entries pop in the same order
        from any heap layout, and the dropped ones would be skipped.
        """
        pages = self._pages
        if len(self._heap) > 2 * len(pages) + HEAP_SLACK:
            self._heap = [
                entry for entry in self._heap
                if pages.get(entry[2]) == entry[1]
            ]
            heapq.heapify(self._heap)

    def touch(self, page_id: int) -> None:
        price = self._price
        benefit = self.model.benefit(page_id)
        if benefit < price[page_id]:
            # A shrinking estimate (cost spreads drifted down, or the
            # last-copy bonus vanished because another node cached the
            # page) must enter the heap immediately: behind its stale
            # higher-priced entry the page would never surface as an
            # eviction candidate.
            self._push_priced(page_id, benefit)
            self._bound_heap()
        else:
            # The common case — the estimate grew (fresher heat).  The
            # existing entry sits at a price <= the new estimate, so it
            # still surfaces no later than it should; _select_victim
            # re-syncs it at the next eviction.  No heap op per hit.
            price[page_id] = benefit

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def page_ids(self) -> Iterable[int]:
        return iter(self._pages)
