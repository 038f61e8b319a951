"""Synthetic trace recording and replay.

Recording a workload run produces a deterministic operation trace
(arrival time, node, class, page list) that can be replayed against a
differently configured cluster — useful for apples-to-apples policy
comparisons (same accesses, different buffer management).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.cluster import Cluster


@dataclass(frozen=True)
class TraceRecord:
    """One recorded operation."""

    time: float
    node_id: int
    class_id: int
    pages: Tuple[int, ...]


class TraceRecorder:
    """Collects :class:`TraceRecord` entries during a run."""

    def __init__(self):
        self.records: List[TraceRecord] = []

    def record(
        self, time: float, node_id: int, class_id: int, pages: Tuple[int, ...]
    ) -> None:
        """Append one operation to the trace."""
        self.records.append(TraceRecord(time, node_id, class_id, pages))


class TraceReplayer:
    """Replays a recorded trace against a cluster."""

    def __init__(self, cluster: Cluster, records: List[TraceRecord],
                 sink=None):
        self.cluster = cluster
        self.records = sorted(records, key=lambda r: r.time)
        self.sink = sink
        self.operations_completed = 0

    def start(self) -> None:
        """Schedule the whole trace (call once, before env.run)."""
        self.cluster.env.process(self._driver())

    def _driver(self):
        env = self.cluster.env
        for rec in self.records:
            if rec.time > env.now:
                yield env.timeout(rec.time - env.now)
            env.process(self._operation(rec))

    def _operation(self, rec: TraceRecord):
        env = self.cluster.env
        started = env.now
        if self.sink is not None:
            self.sink.on_arrival(rec.node_id, rec.class_id, started)
        yield from self.cluster.access_run(
            rec.node_id, rec.pages, rec.class_id
        )
        self.operations_completed += 1
        if self.sink is not None:
            self.sink.on_complete(
                rec.node_id, rec.class_id, env.now - started, env.now
            )
