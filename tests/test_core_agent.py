"""Unit tests for the collect-phase agents."""

import pytest

from repro.core.agent import ClassAgent


def test_snapshot_reports_arrivals_and_rate():
    agent = ClassAgent(node_id=0, class_id=1)
    for t in (1.0, 2.0, 3.0):
        agent.on_arrival(t)
    report = agent.snapshot(interval_ms=1000.0, now=1000.0)
    assert report.arrivals == 3
    assert report.arrival_rate == pytest.approx(0.003)
    assert report.node_id == 0
    assert report.class_id == 1


def test_snapshot_reports_mean_response_time():
    agent = ClassAgent(node_id=0, class_id=1)
    agent.on_complete(10.0, now=1.0)
    agent.on_complete(20.0, now=2.0)
    report = agent.snapshot(interval_ms=1000.0, now=1000.0)
    assert report.completions == 2
    assert report.mean_response_ms == pytest.approx(15.0)


def test_snapshot_resets_the_window():
    agent = ClassAgent(node_id=0, class_id=1)
    agent.on_arrival(1.0)
    agent.on_complete(10.0, now=1.0)
    agent.snapshot(interval_ms=1000.0, now=1000.0)
    second = agent.snapshot(interval_ms=1000.0, now=2000.0)
    assert second.arrivals == 0
    assert second.completions == 0
    assert second.mean_response_ms == 0.0


def test_lifetime_statistics_survive_snapshots():
    agent = ClassAgent(node_id=0, class_id=1)
    agent.on_complete(10.0, now=1.0)
    agent.snapshot(interval_ms=1000.0, now=1000.0)
    agent.on_complete(30.0, now=1500.0)
    agent.snapshot(interval_ms=1000.0, now=2000.0)
    assert agent.lifetime_completions == 2
    assert agent.lifetime_mean_response_ms == pytest.approx(20.0)


def test_first_report_is_always_significant():
    agent = ClassAgent(node_id=0, class_id=1)
    report = agent.snapshot(interval_ms=1000.0, now=1000.0)
    assert agent.significant_change(report)


def test_unchanged_measurements_not_significant():
    agent = ClassAgent(node_id=0, class_id=1)
    agent.on_arrival(1.0)
    agent.on_complete(10.0, now=5.0)
    first = agent.snapshot(interval_ms=1000.0, now=1000.0)
    agent.mark_reported(first)
    agent.on_arrival(1001.0)
    agent.on_complete(10.2, now=1005.0)  # 2 % change < 5 % threshold
    second = agent.snapshot(interval_ms=1000.0, now=2000.0)
    assert not agent.significant_change(second)


def test_large_change_is_significant():
    agent = ClassAgent(node_id=0, class_id=1)
    agent.on_arrival(1.0)
    agent.on_complete(10.0, now=5.0)
    first = agent.snapshot(interval_ms=1000.0, now=1000.0)
    agent.mark_reported(first)
    agent.on_arrival(1001.0)
    agent.on_complete(20.0, now=1005.0)
    second = agent.snapshot(interval_ms=1000.0, now=2000.0)
    assert agent.significant_change(second)


def test_empty_intervals_not_significant_after_empty_report():
    agent = ClassAgent(node_id=0, class_id=1)
    first = agent.snapshot(interval_ms=1000.0, now=1000.0)
    agent.mark_reported(first)
    second = agent.snapshot(interval_ms=1000.0, now=2000.0)
    assert not agent.significant_change(second)


def test_reports_sent_counter():
    agent = ClassAgent(node_id=0, class_id=1)
    report = agent.snapshot(interval_ms=1000.0, now=1000.0)
    agent.mark_reported(report)
    assert agent.reports_sent == 1
