"""Least-recently-used replacement."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.bufmgr.base import BufferPool


class LruPool(BufferPool):
    """Classic LRU: evict the page untouched for the longest time."""

    __slots__ = ("_pages",)

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def _select_victim(self) -> int:
        return next(iter(self._pages))

    def _store(self, page_id: int) -> None:
        self._pages[page_id] = None

    def _discard(self, page_id: int) -> None:
        del self._pages[page_id]

    def touch(self, page_id: int) -> None:
        self._pages.move_to_end(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def page_ids(self) -> Iterable[int]:
        return iter(self._pages)
