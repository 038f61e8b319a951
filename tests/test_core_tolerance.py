"""Unit tests for the adaptive goal tolerance."""

import pytest

from repro.core.tolerance import MAX_SAMPLES, GoalTolerance


def test_uncalibrated_uses_relative_floor():
    tol = GoalTolerance()
    assert not tol.calibrated
    assert tol.tolerance(goal_ms=10.0) == pytest.approx(1.0)


def test_calibration_needs_min_samples():
    tol = GoalTolerance()
    tol.record_stable_interval(10.0)
    tol.record_stable_interval(10.5)
    assert not tol.calibrated
    tol.record_stable_interval(9.5)
    assert tol.calibrated


def test_calibrated_band_reflects_variance():
    noisy = GoalTolerance()
    steady = GoalTolerance()
    for x in (5.0, 15.0, 10.0, 20.0, 0.0):
        noisy.record_stable_interval(x)
    for x in (10.0, 10.1, 9.9, 10.0, 10.0):
        steady.record_stable_interval(x)
    assert noisy.tolerance(10.0) > steady.tolerance(10.0)


def test_floor_dominates_tiny_variance():
    tol = GoalTolerance()
    for _ in range(5):
        tol.record_stable_interval(10.0)
    assert tol.tolerance(10.0) == pytest.approx(1.0)


def test_reset_discards_calibration():
    tol = GoalTolerance()
    for x in (1.0, 2.0, 3.0):
        tol.record_stable_interval(x)
    assert tol.calibrated
    tol.reset()
    assert not tol.calibrated


def test_sample_window_bounded():
    tol = GoalTolerance()
    for i in range(2 * MAX_SAMPLES):
        tol.record_stable_interval(float(i))
    assert len(tol._samples) == MAX_SAMPLES


def test_violation_above_goal():
    tol = GoalTolerance()
    assert not tol.violated(observed_ms=10.5, goal_ms=10.0)
    assert tol.violated(observed_ms=11.5, goal_ms=10.0)


def test_violation_below_goal_uses_wider_band():
    tol = GoalTolerance(low_side_slack=0.3)
    # 10 % band above, 30 % band below.
    assert not tol.violated(observed_ms=7.5, goal_ms=10.0)
    assert tol.violated(observed_ms=6.5, goal_ms=10.0)


def test_exact_goal_never_violated():
    tol = GoalTolerance()
    assert not tol.violated(observed_ms=10.0, goal_ms=10.0)


@pytest.mark.parametrize("kwargs", [{"low_side_slack": -0.1}])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        GoalTolerance(**kwargs)
