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
    """Open-system operation streams for every (node, class) pair.

    Arrivals come from one :class:`~repro.workload.blockgen.NodeDispatcher`
    per node.  A read-only operation is not a process: the generator
    arms the node's pooled fetch chain with the operation's pages and
    is itself the chain's owner, so :meth:`_resume` runs once when the
    last page is done.  Operations of classes that write run as
    transaction processes, because 2PL lock waits need a generator
    frame.
    """

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
        """The page picker of ``spec``'s class.

        Goal controllers and evolving workloads replace ClassSpec
        objects wholesale (e.g. ``with_goal`` clones, new arrival
        rates); such a spec shares its class's picker, and the cache
        entry is rebound so later identity checks hit.  A class's page
        set and skew are fixed for the run: a spec that changes either
        raises ``ValueError``.
        """
        old, picker = self._pickers[spec.class_id]
        if old is not spec:
            if old.skew != spec.skew or not (
                old.pages is spec.pages or old.pages == spec.pages
            ):
                raise ValueError(
                    f"class {spec.class_id}'s page set or skew changed "
                    "mid-run; only its rate and goal may change"
                )
            self._pickers[spec.class_id] = (spec, picker)
        return picker

    def start(self) -> None:
        """Begin the arrival front-end (call once, before env.run).

        One block-drawn dispatcher per node replaces the classic
        per-(node, class) coroutines; arrival times and page draws are
        bit-identical (see :mod:`repro.workload.blockgen`).
        """
        from repro.workload.blockgen import NodeDispatcher

        if not self.spec.classes:
            return
        for node_id in range(self.cluster.num_nodes):
            NodeDispatcher(self, node_id)

    # -- operations --------------------------------------------------

    def _start_operation(self, node_id: int, class_spec: ClassSpec,
                         pages) -> None:
        """Start one operation that arrives now (called by the dispatcher)."""
        if class_spec.write_fraction > 0 and self.txn_manager is not None:
            self.cluster.env.process(
                self._transactional_operation(node_id, class_spec, pages)
            )
            return
        class_id = class_spec.class_id
        self._arrive(node_id, class_id, pages)
        chain = self.cluster._chain(node_id)
        chain._fast_proc = self
        chain._run(pages, class_id)

    def _arrive(self, node_id: int, class_id: int, pages) -> float:
        """Count, report and record an operation starting now."""
        now = self.cluster.env._now
        self.operations_started += 1
        self.sink.on_arrival(node_id, class_id, now)
        if self.recorder is not None:
            self.recorder.record(now, node_id, class_id, tuple(pages))
        return now

    def _resume(self, chain) -> None:
        """Handler: a read-only operation's fetch chain finished its run."""
        now = chain.env._now
        self.operations_completed += 1
        self.sink.on_complete(
            chain._node_id, chain._class, now - chain._start, now
        )

    def _transactional_operation(self, node_id, class_spec, pages):
        """Process: one operation run as a 2PL/WAL/2PC transaction (§3)."""
        from repro.txn.locks import DeadlockError

        env = self.cluster.env
        class_id = class_spec.class_id
        started = self._arrive(node_id, class_id, pages)
        rng = self.cluster.rng
        write_stream = f"writes/n{node_id}/c{class_id}"
        txn = self.txn_manager.begin(node_id)
        try:
            for page_id in pages:
                if rng.random(write_stream) < class_spec.write_fraction:
                    yield from self.txn_manager.write(
                        txn, page_id,
                        payload=f"t{txn.txn_id}", class_id=class_id,
                    )
                else:
                    yield from self.txn_manager.read(
                        txn, page_id, class_id=class_id
                    )
            yield from self.txn_manager.commit(txn)
        except DeadlockError:
            # The victim was already rolled back; the operation still
            # completes (with the time it burned) — no retry, as in an
            # open system the client sees the failure latency.
            pass
        self.operations_completed += 1
        self.sink.on_complete(node_id, class_id, env.now - started, env.now)
