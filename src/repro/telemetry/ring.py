"""A bounded append-only log that evicts its oldest entries.

:class:`RingLog` backs :attr:`repro.core.coordinator.Coordinator.decision_log`
— the coordinator's per-interval decision audit — with true ring
semantics: appends are O(1), the newest ``limit`` entries are retained,
and the oldest entry is evicted when the cap is reached (instead of the
historical list-slice truncation, which shifted the whole list on every
append once full).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator


class RingLog:
    """Keep the newest ``limit`` appended entries, oldest first."""

    __slots__ = ("_items", "appended")

    def __init__(self, limit: int = 512):
        if limit < 1:
            raise ValueError("ring limit must be >= 1")
        self._items: deque = deque(maxlen=limit)
        #: Total entries ever appended (evictions included).
        self.appended = 0

    def append(self, item) -> None:
        """Append ``item``, evicting the oldest entry when full."""
        self._items.append(item)
        self.appended += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]

    def __repr__(self) -> str:
        return (
            f"RingLog(limit={self._items.maxlen}, len={len(self._items)}, "
            f"appended={self.appended})"
        )
