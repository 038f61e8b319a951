"""LRU-2 replacement (O'Neil, O'Neil & Weikum, SIGMOD '93; K = 2).

The victim is the page with the largest *backward K-distance*: the page
whose K-th most recent reference lies furthest in the past.  Pages with
fewer than K recorded references have infinite backward K-distance and
are evicted first (LRU order among themselves), as in the original
algorithm.  K = 2 is the heat estimate §6 uses.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable

from repro.bufmgr.base import BufferPool

#: References remembered per page (LRU-2).
K = 2


class LrukPool(BufferPool):
    """LRU-2 pool; ``clock`` supplies the current time for references."""

    __slots__ = ("_clock", "_history")

    def __init__(self, capacity: int, clock: Callable[[], float]):
        super().__init__(capacity)
        self._clock = clock
        #: page id -> deque of the last K reference times (newest last)
        self._history: Dict[int, Deque[float]] = {}

    def _record(self, page_id: int) -> None:
        history = self._history.get(page_id)
        if history is None:
            history = deque(maxlen=K)
            self._history[page_id] = history
        history.append(self._clock())

    def _select_victim(self) -> int:
        # Max backward K-distance == min K-th most recent reference
        # time, with pages lacking K references sorted first (their
        # K-th reference time is -inf), LRU among themselves.
        def key(page_id: int):
            history = self._history[page_id]
            if len(history) < K:
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
