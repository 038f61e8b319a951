"""Unit tests for the telemetry metrics registry and ring log."""

import pytest

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.ring import RingLog
from repro.telemetry.trace import TraceLog


def test_counter_accumulates():
    counter = Counter()
    assert counter.value == 0
    counter.value += 1
    counter.value += 4
    assert counter.value == 5


def test_gauge_holds_set_value():
    gauge = Gauge()
    gauge.set(3.5)
    assert gauge.value == 3.5


def test_histogram_tracks_stats_and_p95():
    hist = Histogram()
    for v in range(1, 101):
        hist.add(float(v))
    assert hist.count == 100
    assert hist.stats.mean == pytest.approx(50.5)
    assert hist.sum == pytest.approx(5050.0)
    assert hist.p95.value == pytest.approx(95.0, rel=0.05)


def test_registry_memoizes_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("hits", node=0)
    b = registry.counter("hits", node=0)
    c = registry.counter("hits", node=1)
    assert a is b
    assert a is not c
    a.value += 1
    assert registry.counter("hits", node=0).value == 1


def test_registry_label_order_is_irrelevant():
    registry = MetricsRegistry()
    a = registry.counter("m", node=0, cls=1)
    b = registry.counter("m", cls=1, node=0)
    assert a is b


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("m")
    with pytest.raises(ValueError):
        registry.gauge("m")


def test_registry_samples_sorted():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a", node=1)
    registry.counter("a", node=0)
    names = [
        (name, labels) for _, name, labels, _ in registry.samples()
    ]
    assert names == sorted(names)


def test_ring_log_is_a_true_ring():
    ring = RingLog(3)
    for i in range(7):
        ring.append(i)
    assert list(ring) == [4, 5, 6]
    assert len(ring) == 3
    assert ring.appended == 7
    assert ring.appended - len(ring) == 4  # evicted
    assert ring[-1] == 6
    assert ring[0] == 4
    assert ring[1:] == [5, 6]


def test_ring_log_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        RingLog(0)


def test_trace_log_emits_and_counts_kinds():
    trace = TraceLog()
    trace.emit("a", 1.0, x=1)
    trace.emit("b", 2.0)
    trace.emit("a", 3.0)
    assert len(trace) == 3
    assert trace.kinds() == {"a": 2, "b": 1}
    assert trace.records[0] == {"kind": "a", "t": 1.0, "x": 1}
