"""LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD '93).

The victim is the page with the largest *backward K-distance*: the page
whose K-th most recent reference lies furthest in the past.  Pages with
fewer than K recorded references have infinite backward K-distance and
are evicted first (LRU order among themselves), as in the original
algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable

from repro.bufmgr.base import BufferPool


class LrukPool(BufferPool):
    """LRU-K pool; ``clock`` supplies the current time for references."""

    __slots__ = ("k", "_clock", "_history")

    def __init__(self, capacity: int, clock: Callable[[], float],
                 k: int = 2):
        if k < 1:
            raise ValueError("k must be >= 1")
        super().__init__(capacity)
        self.k = k
        self._clock = clock
        #: page id -> deque of the last K reference times (newest last)
        self._history: Dict[int, Deque[float]] = {}

    def _record(self, page_id: int) -> None:
        history = self._history.get(page_id)
        if history is None:
            history = deque(maxlen=self.k)
            self._history[page_id] = history
        history.append(self._clock())

    def _select_victim(self) -> int:
        # Max backward K-distance == min K-th most recent reference
        # time, with pages lacking K references sorted first (their
        # K-th reference time is -inf), LRU among themselves.
        def key(page_id: int):
            history = self._history[page_id]
            if len(history) < self.k:
                return (0, history[-1])  # infinite distance bucket
            return (1, history[0])       # K-th most recent reference

        return min(self._history, key=key)

    def _store(self, page_id: int) -> None:
        self._record(page_id)

    def _discard(self, page_id: int) -> None:
        del self._history[page_id]

    def touch(self, page_id: int) -> None:
        self._record(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._history

    def __len__(self) -> int:
        return len(self._history)

    def page_ids(self) -> Iterable[int]:
        return iter(self._history)
