"""Unit/integration tests for the §7.1 convergence protocol harness."""

import pytest

from repro.experiments import convergence
from repro.experiments.convergence import (
    ConvergenceSettings,
    convergence_experiment,
    measure_convergence_run,
)


@pytest.fixture
def tiny_settings(fast_config, monkeypatch):
    monkeypatch.setattr(convergence, "MAX_INTERVALS_PER_CHANGE", 15)
    monkeypatch.setattr(convergence, "SATISFIED_BEFORE_CHANGE", 2)
    return ConvergenceSettings(
        config=fast_config,
        arrival_rate_per_node=0.02,
        warmup_ms=6_000.0,
        initial_intervals=12,
        goal_changes_per_run=2,
    )


@pytest.fixture
def fast_goal_range(fast_config, tiny_settings):
    from repro.experiments.calibration import calibrate_goal_range
    from repro.experiments.runner import default_workload

    workload = default_workload(
        fast_config,
        arrival_rate_per_node=tiny_settings.arrival_rate_per_node,
    )
    return calibrate_goal_range(
        workload, class_id=1, config=fast_config, seed=50,
        warmup_ms=15_000, measure_ms=25_000,
    )


def test_run_produces_one_sample_per_goal_change(
    tiny_settings, fast_goal_range
):
    samples = measure_convergence_run(
        tiny_settings, fast_goal_range, seed=50
    )
    assert len(samples) == tiny_settings.goal_changes_per_run
    for sample in samples:
        assert 1 <= sample <= convergence.MAX_INTERVALS_PER_CHANGE


def test_runs_are_deterministic(tiny_settings, fast_goal_range):
    a = measure_convergence_run(tiny_settings, fast_goal_range, seed=51)
    b = measure_convergence_run(tiny_settings, fast_goal_range, seed=51)
    assert a == b


def test_experiment_aggregates_replications(
    tiny_settings, fast_goal_range
):
    result = convergence_experiment(
        settings=tiny_settings,
        goal_range=fast_goal_range,
        target_half_width=50.0,   # trivially satisfied: stop at min reps
        min_replications=2,
        max_replications=2,
        base_seed=60,
    )
    assert len(result.samples) == 2 * tiny_settings.goal_changes_per_run
    assert result.mean_iterations > 0
    assert result.goal_range is fast_goal_range
