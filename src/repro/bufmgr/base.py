"""Buffer pool abstraction.

A :class:`BufferPool` caches page ids up to a capacity measured in page
frames.  Replacement policy is supplied by subclasses through
:meth:`BufferPool._select_victim`.  Pools know nothing about classes,
nodes, or the network — the per-node composition lives in
:mod:`repro.bufmgr.manager`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List


class BufferPool(ABC):
    """An in-memory page cache with a pluggable replacement policy."""

    __slots__ = ("_capacity",)

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity

    # -- policy hooks ------------------------------------------------

    @abstractmethod
    def _select_victim(self) -> int:
        """Return the page id to evict next (pool guaranteed non-empty)."""

    @abstractmethod
    def _store(self, page_id: int) -> None:
        """Record ``page_id`` as cached (capacity already ensured)."""

    @abstractmethod
    def _discard(self, page_id: int) -> None:
        """Forget ``page_id`` (guaranteed present)."""

    @abstractmethod
    def touch(self, page_id: int) -> None:
        """Signal an access to a cached page (guaranteed present)."""

    @abstractmethod
    def __contains__(self, page_id: int) -> bool:
        """True if ``page_id`` is cached."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached pages."""

    @abstractmethod
    def page_ids(self) -> Iterable[int]:
        """Iterate over the cached page ids."""

    # -- generic operations -------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of cached pages."""
        return self._capacity

    def insert(self, page_id: int) -> List[int]:
        """Cache ``page_id``; return the list of evicted page ids.

        Inserting into a zero-capacity pool evicts the page itself
        immediately (the page is simply not cached).
        """
        if page_id in self:
            self.touch(page_id)
            return []
        if self._capacity == 0:
            return [page_id]
        evicted = []
        while len(self) >= self._capacity:
            victim = self._select_victim()
            self._discard(victim)
            evicted.append(victim)
        self._store(page_id)
        return evicted

    def remove(self, page_id: int) -> bool:
        """Drop ``page_id`` if cached; return whether it was present."""
        if page_id in self:
            self._discard(page_id)
            return True
        return False

    def resize(self, new_capacity: int) -> List[int]:
        """Change the capacity; return pages evicted by a shrink."""
        if new_capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = new_capacity
        evicted = []
        while len(self) > self._capacity:
            victim = self._select_victim()
            self._discard(victim)
            evicted.append(victim)
        return evicted
