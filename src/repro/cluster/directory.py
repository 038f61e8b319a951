"""Global page-location directory for remote caching.

Remote caching needs to know which nodes currently hold a cached copy
of a page, and in particular whether a given copy is the *last* cached
copy in the system (the cost-based replacement of §6 prices last copies
higher, because dropping one forces the next access to disk).

The real system of [27, 26] disseminates this information with
threshold-based protocols; the simulation models the resulting
knowledge directly and charges :class:`~repro.cluster.messages`
DIRECTORY_UPDATE bytes for each registration change so the overhead
accounting stays honest.

Holder state is columnar: two ``array('i')`` columns indexed by page id
hold the copy count and the lowest holder id, so the by-far dominant
cases — zero or one cached copy — cost two array reads and allocate
nothing.  Only pages cached on two or more nodes keep a real ``set`` of
holders in a side dict; with data-shipping workloads that is a small
minority of the database, which removes the per-page set objects that
dominated directory memory (and GC scan time) at millions of pages.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Set

from repro.cluster.messages import MessageKind
from repro.cluster.network import Network


class DirectoryInvariantError(AssertionError):
    """The directory's columnar state violates its own invariants or
    disagrees with the actual node pool contents after reconciliation."""


class PageDirectory:
    """Tracks, per page, the set of nodes caching it.

    ``capacity`` pre-sizes the columns for a known database size (the
    cluster passes ``config.num_pages``); out-of-range page ids grow
    the columns on demand, so a bare ``PageDirectory()`` keeps working
    for arbitrary ids.

    The deterministic lowest-id holder each page's remote fetches go to
    is maintained incrementally (updated on register, recomputed only
    when that exact node unregisters) so ``remote_holder`` is O(1)
    amortized instead of sorting the holder set on every remote miss.
    """

    __slots__ = ("_count", "_lowest", "_multi", "_network", "_ncached")

    def __init__(self, network: Optional[Network] = None,
                 capacity: int = 0):
        # Zero-filled columns; ``_lowest`` is only meaningful where the
        # count is non-zero.
        self._count = array("i", bytes(4 * capacity))
        self._lowest = array("i", bytes(4 * capacity))
        #: Holder sets, only for pages with >= 2 cached copies.
        self._multi: Dict[int, Set[int]] = {}
        self._network = network
        self._ncached = 0  # pages with at least one holder

    def _grow(self, page_id: int) -> None:
        count = self._count
        need = max(page_id + 1, 2 * len(count))
        pad = bytes(4 * (need - len(count)))
        count.frombytes(pad)
        self._lowest.frombytes(pad)

    def register(self, page_id: int, node_id: int) -> None:
        """Note that ``node_id`` now caches ``page_id``."""
        count = self._count
        if page_id >= len(count):
            self._grow(page_id)
        n = count[page_id]
        if n == 0:
            count[page_id] = 1
            self._lowest[page_id] = node_id
            self._ncached += 1
        elif n == 1:
            low = self._lowest[page_id]
            if low == node_id:
                return
            self._multi[page_id] = {low, node_id}
            count[page_id] = 2
            if node_id < low:
                self._lowest[page_id] = node_id
        else:
            holders = self._multi[page_id]
            if node_id in holders:
                return
            holders.add(node_id)
            count[page_id] = n + 1
            if node_id < self._lowest[page_id]:
                self._lowest[page_id] = node_id
        self._account()

    def unregister(self, page_id: int, node_id: int) -> None:
        """Note that ``node_id`` dropped its copy of ``page_id``."""
        count = self._count
        if page_id >= len(count):
            return
        n = count[page_id]
        if n == 0:
            return
        if n == 1:
            if self._lowest[page_id] != node_id:
                return
            count[page_id] = 0
            self._ncached -= 1
        elif n == 2:
            holders = self._multi[page_id]
            if node_id not in holders:
                return
            holders.remove(node_id)
            survivor = holders.pop()
            del self._multi[page_id]
            count[page_id] = 1
            self._lowest[page_id] = survivor
        else:
            holders = self._multi[page_id]
            if node_id not in holders:
                return
            holders.remove(node_id)
            count[page_id] = n - 1
            if self._lowest[page_id] == node_id:
                self._lowest[page_id] = min(holders)
        self._account()

    def unregister_many(self, page_ids: Iterable[int],
                        node_id: int) -> None:
        """Drop ``node_id``'s copies of every page in ``page_ids``.

        Equivalent to calling :meth:`unregister` per page (including
        one DIRECTORY_UPDATE accounted per actual removal) without the
        per-call overhead — eviction bursts hit this path.
        """
        count = self._count
        lowest = self._lowest
        multi = self._multi
        size = len(count)
        removed = 0
        for page_id in page_ids:
            if page_id >= size:
                continue
            n = count[page_id]
            if n == 0:
                continue
            if n == 1:
                if lowest[page_id] != node_id:
                    continue
                count[page_id] = 0
                self._ncached -= 1
            elif n == 2:
                holders = multi[page_id]
                if node_id not in holders:
                    continue
                holders.remove(node_id)
                survivor = holders.pop()
                del multi[page_id]
                count[page_id] = 1
                lowest[page_id] = survivor
            else:
                holders = multi[page_id]
                if node_id not in holders:
                    continue
                holders.remove(node_id)
                count[page_id] = n - 1
                if lowest[page_id] == node_id:
                    lowest[page_id] = min(holders)
            removed += 1
        if removed:
            self._account(removed)

    def holders(self, page_id: int) -> Set[int]:
        """Nodes currently caching ``page_id`` (possibly empty).

        For pages with two or more copies this is the directory's live
        set — callers must not mutate it, and must snapshot
        (``list(...)``) before unregistering while iterating.  Pages
        with fewer copies return a fresh set.
        """
        count = self._count
        if page_id >= len(count):
            return set()
        n = count[page_id]
        if n == 0:
            return set()
        if n == 1:
            return {self._lowest[page_id]}
        return self._multi[page_id]

    def cached_anywhere(self, page_id: int) -> bool:
        """True if at least one node caches the page."""
        count = self._count
        return page_id < len(count) and count[page_id] > 0

    def remote_holder(self, page_id: int, requester: int) -> Optional[int]:
        """A node other than ``requester`` caching the page, if any.

        Deterministically returns the lowest node id so simulations are
        reproducible.
        """
        count = self._count
        if page_id >= len(count):
            return None
        n = count[page_id]
        if n == 0:
            return None
        lowest = self._lowest[page_id]
        if lowest != requester:
            return lowest
        if n == 1:
            return None
        # The requester is itself the lowest holder; fall back to the
        # next-lowest (rare: the caller usually checks its own cache
        # before asking for a remote copy).
        best = None
        for holder in self._multi[page_id]:
            if holder != requester and (best is None or holder < best):
                best = holder
        return best

    def is_last_copy(self, page_id: int, node_id: int) -> bool:
        """True if ``node_id`` holds the only cached copy of the page."""
        count = self._count
        return (
            page_id < len(count)
            and count[page_id] == 1
            and self._lowest[page_id] == node_id
        )

    # -- anti-entropy ------------------------------------------------

    def state(self) -> Dict[int, tuple]:
        """Canonical snapshot of every cached page's directory entry.

        Maps ``page_id -> (count, lowest, sorted holder tuple)`` —
        exactly the columnar state (count column, lowest column, spill
        set), so two directories are behaviorally identical iff their
        snapshots are equal.  Property tests compare a post-fault
        directory's snapshot against a from-scratch rebuild.
        """
        out: Dict[int, tuple] = {}
        count = self._count
        for page_id in range(len(count)):
            n = count[page_id]
            if n > 0:
                out[page_id] = (
                    n,
                    self._lowest[page_id],
                    tuple(sorted(self.holders(page_id))),
                )
        return out

    def audit(self, actual: Dict[int, Set[int]]) -> list:
        """Check internal invariants and agreement with ``actual``.

        ``actual`` maps page id to the set of nodes whose buffer pools
        really hold the page.  Returns a list of human-readable
        discrepancy strings (empty = clean): count/spill/lowest columns
        must be mutually consistent, the cached-page counter must add
        up, and every entry must match the pool truth.
        """
        problems = []
        count = self._count
        lowest = self._lowest
        multi = self._multi
        ncached = 0
        for page_id in range(len(count)):
            n = count[page_id]
            if n > 0:
                ncached += 1
            if n <= 1:
                if page_id in multi:
                    problems.append(
                        f"page {page_id}: count {n} but a spill set exists"
                    )
            else:
                holders = multi.get(page_id)
                if holders is None:
                    problems.append(
                        f"page {page_id}: count {n} but no spill set"
                    )
                else:
                    if len(holders) != n:
                        problems.append(
                            f"page {page_id}: count {n} != spill set "
                            f"size {len(holders)}"
                        )
                    if holders and min(holders) != lowest[page_id]:
                        problems.append(
                            f"page {page_id}: lowest column "
                            f"{lowest[page_id]} != min holder "
                            f"{min(holders)}"
                        )
            truth = actual.get(page_id, ())
            mine = self.holders(page_id)
            if mine != set(truth):
                problems.append(
                    f"page {page_id}: directory says {sorted(mine)}, "
                    f"pools hold {sorted(truth)}"
                )
        for page_id, truth in actual.items():
            if page_id >= len(count) and truth:
                problems.append(
                    f"page {page_id}: cached on {sorted(truth)} but "
                    f"beyond the directory columns"
                )
        if ncached != self._ncached:
            problems.append(
                f"cached-page counter {self._ncached} != "
                f"{ncached} pages with holders"
            )
        return problems

    def reconcile(self, actual: Dict[int, Set[int]]) -> int:
        """Anti-entropy repair: rewrite every entry that disagrees with
        the actual pool contents.  Returns the number of repaired
        entries; each repair is accounted as one DIRECTORY_UPDATE."""
        count = self._count
        pages = set(actual)
        pages.update(
            page_id for page_id in range(len(count)) if count[page_id] > 0
        )
        repairs = 0
        for page_id in sorted(pages):
            truth = set(actual.get(page_id, ()))
            if self.holders(page_id) == truth:
                continue
            if page_id >= len(count):
                self._grow(page_id)
                count = self._count
            n_old = count[page_id]
            n_new = len(truth)
            if n_old > 0 and n_new == 0:
                self._ncached -= 1
            elif n_old == 0 and n_new > 0:
                self._ncached += 1
            self._multi.pop(page_id, None)
            count[page_id] = n_new
            if n_new == 1:
                self._lowest[page_id] = next(iter(truth))
            elif n_new >= 2:
                self._lowest[page_id] = min(truth)
                self._multi[page_id] = set(truth)
            repairs += 1
        if repairs:
            self._account(repairs)
        return repairs

    def _account(self, count: int = 1) -> None:
        if self._network is not None:
            if count == 1:
                self._network.account_only(MessageKind.DIRECTORY_UPDATE)
            else:
                self._network.account_many(
                    MessageKind.DIRECTORY_UPDATE, count
                )
