"""Outside-in layer spans: timing wrappers around each layer's entry points.

:class:`Tracer` replaces the public entry points listed in
:data:`ENTRY_POINTS` with wrappers that time every call.  Nothing under
``src/`` changes: the wrappers are installed on the classes (and on the
coordinator module's ``solve_partitioning`` name) for the duration of a
traced run and removed afterwards.  Install them *before* a
:class:`Simulation` is built, because the fetch chains bind ``probe``,
``admit``, ``register`` and ``observe`` when they are created, and
telemetry binds ``on_access`` when it attaches.

A per-process span stack gives each span its parent, so a span's self
time is its duration minus the time of the spans it encloses.  Spans
are aggregated per (name, parent) in memory; raw spans are kept only
for the per-interval controller calls, and everything is written out
as a Chrome trace-event file at the end.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.core.coordinator as coordinator_module
from repro.bufmgr.costbased import BenefitModel, CostBasedPool
from repro.bufmgr.costs import CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker
from repro.bufmgr.manager import NodeBufferManager
from repro.cluster.cluster import Cluster
from repro.cluster.directory import PageDirectory
from repro.core.agent import ClassAgent
from repro.core.coordinator import Coordinator
from repro.core.measure import MeasureWindow
from repro.telemetry.pipeline import Telemetry
from repro.workload.blockgen import ExponentialColumn, ZipfColumn

#: Every wrapped entry point as (owner, attribute).  A span is named
#: ``<owner>.<attribute>``; for the module-level LP solver the owner is
#: the coordinator module, which calls it by that name.
ENTRY_POINTS = (
    (ExponentialColumn, "refill"),
    (ZipfColumn, "refill"),
    (NodeBufferManager, "probe"),
    (NodeBufferManager, "admit"),
    (CostBasedPool, "insert"),
    (BenefitModel, "benefit_at"),
    (HeatTracker, "record"),
    (HeatTracker, "record_slot"),
    (GlobalHeatRegistry, "record"),
    (PageDirectory, "remote_holder"),
    (PageDirectory, "register"),
    (PageDirectory, "unregister"),
    (PageDirectory, "unregister_many"),
    (CostObserver, "observe"),
    (MeasureWindow, "observe"),
    (MeasureWindow, "fit_planes"),
    (coordinator_module, "solve_partitioning"),
    (Coordinator, "evaluate"),
    (ClassAgent, "snapshot"),
    (Cluster, "apply_allocation"),
    (Telemetry, "on_access"),
    (Telemetry, "emit"),
)

#: The per-interval controller calls, recorded as individual spans.
RAW_SPANS = frozenset({
    "Coordinator.evaluate",
    "ClassAgent.snapshot",
    "Cluster.apply_allocation",
    "MeasureWindow.observe",
    "MeasureWindow.fit_planes",
    "coordinator.solve_partitioning",
})


def span_name(owner, attr: str) -> str:
    """``Class.attr``, or ``module.attr`` for a module-level function."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Span stack, per-(name, parent) aggregates and raw controller spans."""

    def __init__(self):
        #: (name, parent name or None) -> [calls, total seconds, self seconds]
        self.agg: Dict[Tuple[str, Optional[str]], List] = {}
        #: (name, start, duration) of every span in :data:`RAW_SPANS`.
        self.raw: List[Tuple[str, float, float]] = []
        #: Pages in the eviction lists that ``CostBasedPool.insert``
        #: returned.
        self.evictions = 0
        self.t0 = perf_counter()
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        self.agg.clear()
        self.raw.clear()
        self.evictions = 0
        self.t0 = perf_counter()

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for owner, attr in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name(owner, attr), original))

    def uninstall(self) -> None:
        """Restore the original entry points."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        stack = self._stack
        agg = self.agg
        raw = self.raw if name in RAW_SPANS else None
        counts_evictions = name == "CostBasedPool.insert"
        clock = perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (name, parent[0])
                else:
                    key = (name, None)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if raw is not None:
                    raw.append((name, start, duration))
            if counts_evictions:
                self.evictions += len(result)
            return result

        return span

    # -- queries ----------------------------------------------------------

    def calls(self, name: str, parent: Optional[str] = "*") -> int:
        """Calls of ``name`` (under ``parent``; ``"*"`` = any parent)."""
        return sum(
            entry[0] for (n, p), entry in self.agg.items()
            if n == name and (parent == "*" or p == parent)
        )

    def self_s(self, name: str, parent: Optional[str] = "*") -> float:
        """Self seconds of ``name`` (under ``parent``; ``"*"`` = any)."""
        return sum(
            entry[2] for (n, p), entry in self.agg.items()
            if n == name and (parent == "*" or p == parent)
        )

    def attributed_s(self) -> float:
        """Self seconds of every span: the span-covered wall time."""
        return sum(entry[2] for entry in self.agg.values())

    # -- output -----------------------------------------------------------

    def chrome_trace(self, wall_s: float, meta: Dict) -> Dict:
        """Chrome trace-event document (opens in Perfetto).

        Thread 1 lays the aggregated self time of each (span, parent)
        pair end to end, largest first, with the unattributed remainder
        as ``sim.self``; thread 2 holds the raw controller spans on
        their wall-clock timeline.
        """
        events = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": f"perf {meta.get('workload', '')}"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "layer self time (aggregated)"}},
            {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name",
             "args": {"name": "controller spans"}},
        ]
        rows = [
            (entry[2], name, parent, entry)
            for (name, parent), entry in self.agg.items()
        ]
        rows.append((wall_s - self.attributed_s(), "sim.self", None, None))
        ts = 0.0
        for self_s, name, parent, entry in sorted(
            rows, key=lambda row: -row[0]
        ):
            args = {"parent": parent, "self_s": self_s}
            if entry is not None:
                args.update(calls=entry[0], total_s=entry[1])
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "cat": "aggregate",
                "name": name, "ts": ts * 1e6, "dur": max(self_s, 0.0) * 1e6,
                "args": args,
            })
            ts += max(self_s, 0.0)
        for name, start, duration in self.raw:
            events.append({
                "ph": "X", "pid": 1, "tid": 2, "cat": "controller",
                "name": name, "ts": (start - self.t0) * 1e6,
                "dur": duration * 1e6,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}

    def write_chrome_trace(self, path: str, wall_s: float,
                           meta: Dict) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(wall_s, meta), fh)
