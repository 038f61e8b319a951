"""Operation streams driving the cluster.

For each node and each class a stream of operations is generated
(§7.1): inter-arrival times are exponential, page identities are drawn
from the class's Zipfian distribution, and each operation performs its
page accesses through the cluster's data-shipping path.  Completed
operations report their response time to a *sink* (normally the
goal-oriented controller's agents).
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.cluster.cluster import Cluster
from repro.workload.spec import ClassSpec, WorkloadSpec
from repro.workload.trace import TraceRecorder
from repro.workload.zipf import ZipfPagePicker


class WorkloadSink(Protocol):
    """Receiver of workload life-cycle callbacks."""

    def on_arrival(self, node_id: int, class_id: int, now: float) -> None:
        """An operation of ``class_id`` arrived at ``node_id``."""

    def on_complete(
        self, node_id: int, class_id: int, response_ms: float, now: float
    ) -> None:
        """An operation finished with the given response time."""


class NullSink:
    """A sink that ignores everything (for standalone runs)."""

    def on_arrival(self, node_id: int, class_id: int, now: float) -> None:
        """Ignore the arrival."""

    def on_complete(
        self, node_id: int, class_id: int, response_ms: float, now: float
    ) -> None:
        """Ignore the completion."""


class WorkloadGenerator:
    """Spawns one arrival process per (node, class) pair."""

    def __init__(
        self,
        cluster: Cluster,
        spec: WorkloadSpec,
        sink: Optional[WorkloadSink] = None,
        recorder: Optional[TraceRecorder] = None,
        txn_manager=None,
    ):
        self.cluster = cluster
        self.spec = spec
        self.sink = sink if sink is not None else NullSink()
        self.recorder = recorder
        #: Required when any class has write_fraction > 0: operations
        #: of such classes run as transactions (§3 update model).
        self.txn_manager = txn_manager
        needs_txn = any(c.write_fraction > 0 for c in spec.classes)
        if needs_txn and txn_manager is None:
            raise ValueError(
                "classes with write_fraction > 0 need a txn_manager"
            )
        self._pickers = {
            c.class_id: (c, ZipfPagePicker(c.pages, c.skew))
            for c in spec.classes
        }
        self.operations_started = 0
        self.operations_completed = 0

    def _picker_for(self, spec: ClassSpec) -> ZipfPagePicker:
        """The page picker for ``spec``, rebuilt only if it changed.

        Goal controllers replace ClassSpec objects wholesale (e.g.
        ``with_goal`` clones) without touching the page distribution;
        comparing the distribution inputs — not object identity —
        avoids rebuilding the picker on every such replacement.  The
        rank sequence is unaffected either way (the alias table depends
        only on the page count and skew), so reuse is free.
        """
        cached = self._pickers.get(spec.class_id)
        if cached is not None:
            old, picker = cached
            if old is spec:
                return picker
            if old.skew == spec.skew and (
                old.pages is spec.pages or old.pages == spec.pages
            ):
                # Same distribution, new spec object: rebind the cache
                # entry so later identity checks hit.
                self._pickers[spec.class_id] = (spec, picker)
                return picker
        picker = ZipfPagePicker(spec.pages, spec.skew)
        self._pickers[spec.class_id] = (spec, picker)
        return picker

    def start(self) -> None:
        """Begin the arrival front-end (call once, before env.run).

        One block-drawn dispatcher per node replaces the classic
        per-(node, class) coroutines; arrival times and page draws are
        bit-identical (see :mod:`repro.workload.blockgen`).
        """
        from repro.workload.blockgen import node_dispatcher

        if not self.spec.classes:
            return
        for node_id in range(self.cluster.num_nodes):
            self.cluster.env.process(node_dispatcher(self, node_id))

    # -- processes ---------------------------------------------------

    def _operation(self, node_id: int, class_spec: ClassSpec, pages):
        env = self.cluster.env
        started = env.now
        self.operations_started += 1
        self.sink.on_arrival(node_id, class_spec.class_id, started)
        if self.recorder is not None:
            self.recorder.record(
                started, node_id, class_spec.class_id, tuple(pages)
            )
        if class_spec.write_fraction > 0 and self.txn_manager is not None:
            yield from self._transactional_operation(
                node_id, class_spec, pages
            )
        else:
            # One generator frame for the whole operation.
            yield from self.cluster.access_run(
                node_id, pages, class_spec.class_id
            )
        response = env.now - started
        self.operations_completed += 1
        self.sink.on_complete(
            node_id, class_spec.class_id, response, env.now
        )

    def _transactional_operation(self, node_id, class_spec, pages):
        """Run one operation as a 2PL/WAL/2PC transaction (§3)."""
        from repro.txn.locks import DeadlockError

        rng = self.cluster.rng
        write_stream = f"writes/n{node_id}/c{class_spec.class_id}"
        txn = self.txn_manager.begin(node_id)
        try:
            for page_id in pages:
                if rng.random(write_stream) < class_spec.write_fraction:
                    yield from self.txn_manager.write(
                        txn, page_id,
                        payload=f"t{txn.txn_id}",
                        class_id=class_spec.class_id,
                    )
                else:
                    yield from self.txn_manager.read(
                        txn, page_id, class_id=class_spec.class_id
                    )
            yield from self.txn_manager.commit(txn)
        except DeadlockError:
            # The victim was already rolled back; the operation still
            # completes (with the time it burned) — no retry, as in an
            # open system the client sees the failure latency.
            pass
