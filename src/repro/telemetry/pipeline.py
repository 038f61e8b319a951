"""The telemetry pipeline: hot-path hooks, samplers, and attachment.

One :class:`Telemetry` object carries a simulation's metrics registry
and structured trace.  The wiring follows the fault layer's discipline:
every instrumented component holds a ``telemetry`` attribute (or a
``_tel_wait`` histogram on resources) that is ``None`` by default, so
disabled telemetry costs one attribute check on the hot paths and
nothing else.

Two kinds of collection coexist:

* **hot-path hooks** (:meth:`Telemetry.on_access`,
  :meth:`Telemetry.on_evictions`, the resource wait histograms, trace
  emits from the feedback loop) record at event time, instruments
  cached per call site;
* **export-time samplers** read cumulative state the simulation already
  tracks (pool occupancy, network accounting, resource utilization,
  loop counters, agent lifetime statistics) only when an exporter runs
  — or, for a pipeline that streams into a directory, at each interval
  flush, into a scratch registry that the export never sees.

A pipeline with a directory (:meth:`Telemetry.stream_to`) appends its
trace to ``trace.jsonl`` as records are emitted and, at each
``interval`` record, appends the metric samples that changed since the
previous interval to ``snapshots.jsonl``.

Nothing here draws randomness, schedules events, or reads the wall
clock; all timestamps are simulated milliseconds supplied by callers.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.exporters import SNAPSHOTS_FILE, TRACE_FILE
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import TraceLog, jsonable


class Telemetry:
    """Metrics registry + trace log for one simulation."""

    __slots__ = (
        "registry", "trace", "meta", "outdir",
        "_access", "_evictions", "_fault_counts", "_samplers",
        "_snapshots", "_last",
    )

    def __init__(self):
        self.registry = MetricsRegistry()
        self.trace = TraceLog()
        #: Identifying context (seed, node count, ...) for exports.
        self.meta: Dict = {}
        #: Directory the pipeline streams into; None keeps it in memory.
        self.outdir: Optional[str] = None
        self._access: Dict = {}
        self._evictions: Dict = {}
        self._fault_counts: Dict = {}
        self._samplers: List[Callable[[], None]] = []
        self._snapshots = None
        self._last: Dict[Tuple, object] = {}

    # -- hot-path hooks ------------------------------------------------

    def on_access(self, node_id: int, class_id: int, level,
                  elapsed_ms: float) -> None:
        """Record one completed page access and its response time."""
        key = (node_id, class_id, level)
        pair = self._access.get(key)
        if pair is None:
            labels = {"node": node_id, "class": class_id,
                      "level": level.name.lower()}
            pair = (
                self.registry.counter("repro_page_access_total", **labels),
                self.registry.histogram("repro_page_access_ms", **labels),
            )
            self._access[key] = pair
        counter, hist = pair
        counter.value += 1
        hist.add(elapsed_ms)

    def on_evictions(self, node_id: int, count: int) -> None:
        """Record ``count`` pages evicted from node ``node_id``."""
        counter = self._evictions.get(node_id)
        if counter is None:
            counter = self.registry.counter(
                "repro_pool_evictions_total", node=node_id
            )
            self._evictions[node_id] = counter
        counter.value += count

    def on_fault(self, fault) -> None:
        """Record an injected fault activation (trace + counter)."""
        counter = self._fault_counts.get(fault.kind)
        if counter is None:
            counter = self.registry.counter(
                "repro_fault_activations_total", fault=fault.kind
            )
            self._fault_counts[fault.kind] = counter
        counter.value += 1
        self.trace.emit(
            "fault", fault.time_ms, fault=fault.kind, node=fault.node,
            duration_ms=fault.duration_ms,
            dropped_pages=fault.dropped_pages,
            nodes=list(fault.nodes),
        )

    def emit(self, kind: str, t: float, **fields) -> None:
        """Append a structured trace record (see :class:`TraceLog`)."""
        self.trace.emit(kind, t, **fields)

    # -- export-time sampling ------------------------------------------

    def add_sampler(self, fn: Callable[[], None]) -> None:
        """Register a callback that updates the registry at export."""
        self._samplers.append(fn)

    def collect(self) -> None:
        """Run all samplers (exporters call this before reading)."""
        for fn in self._samplers:
            fn()

    # -- streaming into a directory ------------------------------------

    def stream_to(self, outdir: str) -> None:
        """Open ``outdir``'s trace and snapshot files; stream from now on."""
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self._snapshots = open(os.path.join(outdir, SNAPSHOTS_FILE), "w",
                               encoding="utf-8")
        self.trace.stream_to(os.path.join(outdir, TRACE_FILE),
                             self._snapshot)

    def close(self) -> None:
        """Close the streamed files (the export calls this first)."""
        self.trace.close()
        self._snapshots.close()

    def _snapshot(self, t: float) -> None:
        """Append the samples that changed since the last snapshot.

        The samplers run against a scratch registry, so the registry
        the export renders holds exactly what it would without
        snapshots (a pool deleted before the export leaves no gauge).
        """
        registry = self.registry
        self.registry = MetricsRegistry()
        try:
            self.collect()
            sampled = list(self.registry.samples())
        finally:
            self.registry = registry
        changed = []
        for kind, name, labels, instrument in sorted(
            list(registry.samples()) + sampled,
            key=lambda sample: sample[1:3],
        ):
            if kind == "histogram":  # the cheap summary triple
                value = (instrument.count, instrument.stats.mean,
                         instrument.p95.value)
            else:
                value = instrument.value
            key = (name, labels)
            if self._last.get(key) == value:
                continue
            self._last[key] = value
            entry = {"kind": kind, "name": name, "labels": dict(labels)}
            if kind == "histogram":
                entry.update(count=value[0], mean=value[1], p95=value[2])
            else:
                entry["value"] = value
            changed.append(entry)
        if changed:
            self._snapshots.write(json.dumps(
                jsonable({"t": t, "samples": changed}), sort_keys=True
            ) + "\n")
            self._snapshots.flush()


# -- attachment --------------------------------------------------------


def attach_cluster(cluster) -> Telemetry:
    """Wire a fresh :class:`Telemetry` into a cluster's hot paths.

    Installs the per-object sinks (``cluster.telemetry``, each buffer
    manager's ``telemetry``, the CPU/disk/network wait histograms) and
    registers the export-time samplers over state the cluster already
    tracks.  Attaching mutates attributes only — no events, no RNG — so
    a warmed simulation's fingerprint is unchanged.
    """
    tel = Telemetry()
    tel.meta = {
        "seed": cluster.rng.seed,
        "num_nodes": cluster.num_nodes,
        "attached_at_ms": cluster.env.now,
    }
    cluster.telemetry = tel
    registry = tel.registry
    for node in cluster.nodes:
        node.buffers.telemetry = tel
        node.cpu.resource._tel_wait = registry.histogram(
            "repro_resource_wait_ms", node=node.node_id, resource="cpu"
        )
        node.disk.resource._tel_wait = registry.histogram(
            "repro_resource_wait_ms", node=node.node_id, resource="disk"
        )
    cluster.network.medium._tel_wait = registry.histogram(
        "repro_resource_wait_ms", node="shared", resource="network"
    )
    tel.add_sampler(_cluster_sampler(cluster, tel))
    return tel


def attach_simulation(sim) -> Telemetry:
    """Attach telemetry to a full simulation (cluster + feedback loop).

    Besides the cluster wiring this arms the controller's extended
    p50/p90/p95/p99 quantile tracking.
    """
    tel = attach_cluster(sim.cluster)
    controller = sim.controller
    controller.telemetry = tel
    controller.track_extended_quantiles()
    for coordinator in controller.coordinators.values():
        coordinator.telemetry = tel
    tel.add_sampler(_controller_sampler(controller, tel))
    return tel


def _cluster_sampler(cluster, tel: Telemetry) -> Callable[[], None]:
    def sample() -> None:
        registry = tel.registry
        for node in cluster.nodes:
            manager = node.buffers
            for class_id in sorted(manager._pools):
                pool = manager._pools[class_id]
                labels = {"node": node.node_id, "pool": class_id}
                registry.gauge(
                    "repro_pool_capacity_pages", **labels
                ).set(pool.capacity)
                registry.gauge("repro_pool_pages", **labels).set(
                    sum(1 for _ in pool.page_ids())
                )
            for class_id in sorted(manager.hits_by_class):
                registry.counter(
                    "repro_buffer_hits_total",
                    node=node.node_id, **{"class": class_id},
                ).value = manager.hits_by_class[class_id]
            for class_id in sorted(manager.misses_by_class):
                registry.counter(
                    "repro_buffer_misses_total",
                    node=node.node_id, **{"class": class_id},
                ).value = manager.misses_by_class[class_id]
            for name, res in (("cpu", node.cpu.resource),
                              ("disk", node.disk.resource)):
                labels = {"node": node.node_id, "resource": name}
                registry.gauge(
                    "repro_resource_utilization", **labels
                ).set(res.utilization())
                registry.gauge(
                    "repro_resource_mean_wait_ms", **labels
                ).set(res.mean_wait)
                registry.counter(
                    "repro_resource_grants_total", **labels
                ).value = res._grants
        medium = cluster.network.medium
        labels = {"node": "shared", "resource": "network"}
        registry.gauge(
            "repro_resource_utilization", **labels
        ).set(medium.utilization())
        registry.gauge(
            "repro_resource_mean_wait_ms", **labels
        ).set(medium.mean_wait)
        registry.counter(
            "repro_resource_grants_total", **labels
        ).value = medium._grants
        env = cluster.env
        registry.gauge("repro_event_pool_recycled").set(
            env.event_pool_size
        )
        registry.gauge("repro_event_pool_high_water").set(
            env.event_pool_high_water
        )
        accounting = cluster.network.accounting
        for kind in sorted(accounting.bytes_by_kind, key=lambda k: k.value):
            registry.counter(
                "repro_network_bytes_total", kind=kind.value
            ).value = accounting.bytes_by_kind[kind]
            registry.counter(
                "repro_network_messages_total", kind=kind.value
            ).value = accounting.messages_by_kind.get(kind, 0)
    return sample


def _controller_sampler(controller, tel: Telemetry) -> Callable[[], None]:
    def sample() -> None:
        registry = tel.registry
        registry.counter(
            "repro_controller_reports_dropped_total"
        ).value = controller.reports_dropped
        registry.counter(
            "repro_controller_allocation_retries_total"
        ).value = controller.allocation_retries
        registry.counter(
            "repro_controller_allocation_unconfirmed_total"
        ).value = controller.allocation_unconfirmed
        registry.counter(
            "repro_controller_restarts_observed_total"
        ).value = controller.restarts_observed
        registry.counter(
            "repro_controller_coordinator_crashes_total"
        ).value = controller.coordinator_crashes
        registry.counter(
            "repro_controller_reports_unreachable_total"
        ).value = controller.reports_unreachable
        registry.counter(
            "repro_controller_allocations_deferred_total"
        ).value = controller.allocations_deferred
        registry.counter(
            "repro_controller_stale_allocations_rejected_total"
        ).value = controller.stale_allocations_rejected
        registry.counter(
            "repro_controller_degraded_entries_total"
        ).value = controller.degraded_entries
        registry.counter(
            "repro_controller_degraded_exits_total"
        ).value = controller.degraded_exits
        registry.gauge(
            "repro_controller_degraded_nodes"
        ).set(sum(controller.degraded))
        registry.counter(
            "repro_cluster_directory_reconciles_total"
        ).value = controller.cluster.reconciles
        registry.counter(
            "repro_cluster_directory_repairs_total"
        ).value = controller.cluster.reconcile_repairs
        registry.gauge(
            "repro_controller_intervals"
        ).set(controller.interval_index)
        for class_id, coordinator in sorted(controller.coordinators.items()):
            labels = {"class": class_id}
            registry.gauge(
                "repro_coordinator_epoch", **labels
            ).set(coordinator.epoch)
            registry.counter(
                "repro_coordinator_optimizations_total", **labels
            ).value = coordinator.optimizations
            registry.counter(
                "repro_coordinator_lp_solves_total", **labels
            ).value = coordinator.lp_solves
            registry.counter(
                "repro_coordinator_invalidated_points_total", **labels
            ).value = coordinator.invalidated_points
            registry.counter(
                "repro_coordinator_decisions_total", **labels
            ).value = coordinator.decision_log.appended
            registry.gauge(
                "repro_coordinator_goal_ms", **labels
            ).set(coordinator.goal_ms)
            quantiles = controller.response_quantiles(class_id)
            if quantiles:
                for q, value in sorted(quantiles.items()):
                    registry.gauge(
                        "repro_class_response_ms",
                        quantile=f"{q:g}", **labels,
                    ).set(value)
        for (class_id, node_id), agent in sorted(controller.agents.items()):
            if agent.lifetime_completions == 0:
                continue
            labels = {"class": class_id, "node": node_id}
            registry.gauge(
                "repro_response_ms_mean", **labels
            ).set(agent.lifetime_mean_response_ms)
            registry.gauge(
                "repro_response_ms_p95", **labels
            ).set(agent.lifetime_p95_response_ms)
            registry.counter(
                "repro_operations_completed_total", **labels
            ).value = agent.lifetime_completions
    return sample
