"""Unit + property tests for the online statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    OnlineStats,
    TimeSeries,
    WindowStats,
    mean_confidence_interval,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_empty_stats():
    stats = OnlineStats()
    assert stats.count == 0
    assert stats.mean == 0.0
    assert stats.variance == 0.0


def test_single_sample():
    stats = OnlineStats()
    stats.add(5.0)
    assert stats.mean == 5.0
    assert stats.variance == 0.0
    assert stats.minimum == 5.0
    assert stats.maximum == 5.0


@given(st.lists(finite_floats, min_size=2, max_size=200))
@settings(max_examples=100)
def test_welford_matches_numpy(samples):
    stats = OnlineStats()
    for x in samples:
        stats.add(x)
    assert stats.mean == pytest.approx(np.mean(samples), abs=1e-6, rel=1e-9)
    assert stats.variance == pytest.approx(
        np.var(samples, ddof=1), abs=1e-4, rel=1e-6
    )


def test_window_stats_roll():
    window = WindowStats()
    window.add(1.0)
    window.add(3.0)
    finished = window.roll()
    assert finished.mean == 2.0
    window.add(10.0)
    assert window.window.mean == 10.0
    assert window.lifetime.count == 3


def test_time_series_roundtrip():
    series = TimeSeries("t")
    series.append(1.0, 10.0)
    series.append(2.0, 20.0)
    assert series.times == [1.0, 2.0]
    assert series.values == [10.0, 20.0]


def test_confidence_interval_empty_and_single():
    mean, half = mean_confidence_interval([])
    assert half == math.inf
    mean, half = mean_confidence_interval([3.0])
    assert mean == 3.0
    assert half == math.inf


def test_confidence_interval_shrinks_with_n():
    samples_small = [1.0, 2.0, 3.0]
    samples_large = samples_small * 20
    _, half_small = mean_confidence_interval(samples_small)
    _, half_large = mean_confidence_interval(samples_large)
    assert half_large < half_small


def test_confidence_interval_zero_variance():
    mean, half = mean_confidence_interval([5.0] * 10)
    assert mean == 5.0
    assert half == pytest.approx(0.0)
