"""Structured trace log: deterministic event records, kept or streamed.

Each record is a plain dict with at least ``kind`` (the record type) and
``t`` (simulated milliseconds).  A trace without a directory keeps its
records in memory in emit order.  Once :meth:`TraceLog.stream_to` names
a file, each record is written there as one canonical JSON line the
moment it is emitted, and no record is kept: the file is buffered,
flushed at every ``interval`` record, and closed by the export.  Either
way, emitting never perturbs event ordering, RNG streams, or the wall
clock.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional


def jsonable(value):
    """Coerce ``value`` into plain JSON types (numpy included)."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return jsonable(value.item())
    if hasattr(value, "tolist"):  # numpy array
        return jsonable(value.tolist())
    return str(value)


def trace_line(record: Dict) -> str:
    """The canonical JSON line of one trace record (no newline)."""
    return json.dumps(jsonable(record), sort_keys=True)


class TraceLog:
    """Append-only trace: an in-memory list, or a stream into a file."""

    __slots__ = ("records", "_out", "_on_interval")

    def __init__(self):
        #: Emitted records, in order; None once streaming to a file.
        self.records: Optional[List[Dict]] = []
        self._out = None
        self._on_interval: Optional[Callable[[float], None]] = None

    def stream_to(self, path: str,
                  on_interval: Callable[[float], None]) -> None:
        """Write every later record to ``path`` instead of keeping it.

        ``on_interval(t)`` runs after each ``interval`` record has been
        flushed to the file.
        """
        self._out = open(path, "w", encoding="utf-8")
        self._on_interval = on_interval
        self.records = None

    def close(self) -> None:
        """Close the file :meth:`stream_to` opened."""
        self._out.close()

    def emit(self, kind: str, t: float, **fields) -> None:
        """Record an event of ``kind`` at simulated time ``t`` (ms)."""
        record = {"kind": kind, "t": t}
        record.update(fields)
        out = self._out
        if out is None:
            self.records.append(record)
            return
        out.write(trace_line(record) + "\n")
        if kind == "interval":
            out.flush()
            self._on_interval(t)

    def __len__(self) -> int:
        return len(self.records)

    def kinds(self) -> Dict[str, int]:
        """Count of records per ``kind``, sorted by kind."""
        counts: Dict[str, int] = {}
        for record in self.records:
            kind = record["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))
