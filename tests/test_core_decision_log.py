"""Unit tests for the coordinator decision log."""

import numpy as np

from repro.core.coordinator import DecisionRecord
from repro.telemetry.ring import RingLog
from tests.test_core_coordinator import feed, make_coordinator


def test_every_evaluate_is_logged():
    coordinator = make_coordinator(goal_ms=10.0)
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    coordinator.evaluate(now=1.0, other_dedicated=[0, 0, 0])
    feed(coordinator, [10.0] * 3, [1.0] * 3, time=2.0)
    coordinator.evaluate(now=2.0, other_dedicated=[0, 0, 0])
    assert len(coordinator.decision_log) == 2
    first, second = coordinator.decision_log
    assert isinstance(first, DecisionRecord)
    assert first.time == 1.0
    assert not first.satisfied
    assert first.mechanism == "warmup"


def test_log_records_allocation_totals():
    coordinator = make_coordinator(goal_ms=10.0)
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    decision = coordinator.evaluate(now=1.0, other_dedicated=[0, 0, 0])
    assert coordinator.decision_log[-1].allocation_total == (
        float(np.sum(decision.new_allocation))
    )


def test_log_is_bounded():
    coordinator = make_coordinator(goal_ms=10.0)
    coordinator.decision_log = RingLog(5)
    for i in range(12):
        feed(coordinator, [10.0] * 3, [1.0] * 3, time=float(i))
        coordinator.evaluate(now=float(i), other_dedicated=[0, 0, 0])
    assert len(coordinator.decision_log) == 5
    assert coordinator.decision_log[-1].time == 11.0


def test_log_caps_at_512_as_a_ring():
    """The default cap holds, evicting oldest-first without growth."""
    coordinator = make_coordinator(goal_ms=10.0)
    for i in range(520):
        feed(coordinator, [10.0] * 3, [1.0] * 3, time=float(i))
        coordinator.evaluate(now=float(i), other_dedicated=[0, 0, 0])
    assert len(coordinator.decision_log) == 512
    assert coordinator.decision_log.appended == 520
    # Oldest evicted: the surviving window is the newest 512 records.
    assert coordinator.decision_log[0].time == 8.0
    assert coordinator.decision_log[-1].time == 519.0


def test_no_reports_logged_as_satisfied_noop():
    coordinator = make_coordinator()
    coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    record = coordinator.decision_log[-1]
    assert record.observed_rt is None
    assert record.satisfied
