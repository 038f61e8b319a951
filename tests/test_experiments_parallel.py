"""Tests for the process-parallel replication runner.

The headline guarantee: ``--jobs N`` never changes results.  Seeds are
derived from the replicate index, results merge by index, and the
sequential stopping rule is replayed over the index-ordered prefix —
so the parallel path must be bit-identical to the serial one.
"""

import pytest

from repro.experiments import convergence
from repro.experiments.convergence import (
    ConvergenceSettings,
    convergence_experiment,
)
from repro.experiments.parallel import (
    derive_replicate_seed,
    replicate_with_stopping,
    resolve_jobs,
    run_tasks,
)


# -- primitives -------------------------------------------------------


def _square(x):
    return x * x


def _index_of(task):
    return task[0]


def test_derive_replicate_seed_matches_serial_contract():
    # The historical serial loops seeded replicate i with base + i;
    # the shared derivation must keep that contract forever.
    assert [derive_replicate_seed(100, i) for i in range(4)] == [
        100, 101, 102, 103,
    ]


def test_derive_replicate_seed_golden_values():
    # Pinned goldens: any change to the derivation silently reseeds
    # every replicated experiment in the repository.
    assert derive_replicate_seed(0, 0) == 0
    assert derive_replicate_seed(0, 9) == 9
    assert derive_replicate_seed(7, 5) == 12
    assert derive_replicate_seed(1_000_000, 3) == 1_000_003


def test_resolve_jobs_validates():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # auto: all cores
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    with pytest.raises(ValueError):
        resolve_jobs(-32)


def test_resolve_jobs_auto_caps_at_worker_bound(monkeypatch):
    import os

    from repro.experiments import parallel

    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    assert parallel.resolve_jobs(0) == parallel.MAX_AUTO_JOBS
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel.resolve_jobs(0) == 2


def test_resolve_jobs_auto_survives_unknown_cpu_count(monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs(0) == 1


def test_resolve_jobs_explicit_values_are_not_capped():
    # Only the auto path is bounded; an explicit request is honoured.
    from repro.experiments.parallel import MAX_AUTO_JOBS

    assert resolve_jobs(MAX_AUTO_JOBS + 8) == MAX_AUTO_JOBS + 8


def test_run_tasks_serial_and_parallel_agree():
    tasks = list(range(7))
    assert run_tasks(_square, tasks, jobs=1) == [x * x for x in tasks]
    assert run_tasks(_square, tasks, jobs=3) == [x * x for x in tasks]


def test_run_tasks_preserves_input_order():
    # Workers may complete in any order; merging is by task index.
    tasks = [(i,) for i in reversed(range(6))]
    assert run_tasks(_index_of, tasks, jobs=4) == [5, 4, 3, 2, 1, 0]


def test_replicate_with_stopping_prefix_rule_matches_serial():
    # worker(i) = i; stop once the prefix contains a value >= 3.  The
    # serial loop stops after index 3; the wave-parallel path computes
    # extra replicates but must discard them and return the same prefix.
    def stop(prefix):
        return prefix[-1] >= 3

    serial = replicate_with_stopping(_noop_worker, 1, 10, stop, jobs=1)
    waved = replicate_with_stopping(_noop_worker, 1, 10, stop, jobs=4)
    assert serial == waved == [0, 1, 2, 3]


def test_replicate_with_stopping_runs_to_max_without_convergence():
    def never(prefix):
        return False

    assert replicate_with_stopping(_noop_worker, 1, 5, never, jobs=3) == [
        0, 1, 2, 3, 4,
    ]


def _noop_worker(index):
    return index


# -- end-to-end: Table 2 replication ---------------------------------


@pytest.fixture
def tiny_settings(fast_config, monkeypatch):
    monkeypatch.setattr(convergence, "MAX_INTERVALS_PER_CHANGE", 12)
    monkeypatch.setattr(convergence, "SATISFIED_BEFORE_CHANGE", 2)
    return ConvergenceSettings(
        config=fast_config,
        arrival_rate_per_node=0.02,
        warmup_ms=6_000.0,
        initial_intervals=10,
        goal_changes_per_run=2,
    )


def test_convergence_jobs4_matches_jobs1(tiny_settings):
    from repro.experiments.calibration import GoalRange

    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)
    kwargs = dict(
        settings=tiny_settings,
        goal_range=goal_range,
        target_half_width=50.0,  # stop right at min_replications
        min_replications=2,
        max_replications=3,
        base_seed=60,
    )
    serial = convergence_experiment(jobs=1, **kwargs)
    parallel = convergence_experiment(jobs=4, **kwargs)
    assert parallel.samples == serial.samples
    assert parallel.mean_iterations == serial.mean_iterations
    assert parallel.half_width == serial.half_width


def test_table2_jobs4_matches_jobs1_iteration_counts(tiny_settings):
    from repro.experiments.calibration import GoalRange

    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)

    def measure(jobs):
        results = []
        for skew in (0.0, 1.0):
            from dataclasses import replace

            results.append(
                convergence_experiment(
                    settings=replace(tiny_settings, skew=skew),
                    goal_range=goal_range,
                    target_half_width=50.0,
                    min_replications=2,
                    max_replications=2,
                    base_seed=100,
                    jobs=jobs,
                )
            )
        return results

    serial = measure(1)
    parallel = measure(4)
    assert [r.samples for r in parallel] == [r.samples for r in serial]
    assert [r.mean_iterations for r in parallel] == [
        r.mean_iterations for r in serial
    ]


def test_calibration_jobs2_matches_jobs1(fast_config, tiny_settings):
    from repro.experiments.calibration import calibrate_goal_range
    from repro.experiments.runner import default_workload

    workload = default_workload(
        fast_config,
        arrival_rate_per_node=tiny_settings.arrival_rate_per_node,
    )
    kwargs = dict(
        class_id=1, config=fast_config, seed=50,
        warmup_ms=8_000, measure_ms=12_000,
    )
    serial = calibrate_goal_range(workload, jobs=1, **kwargs)
    parallel = calibrate_goal_range(workload, jobs=2, **kwargs)
    assert parallel == serial


# -- end-to-end: resilience replication under faults ------------------


def test_resilience_jobs4_matches_jobs1(fast_config):
    # The fault schedule draws from dedicated seeded streams, so the
    # bit-identity guarantee must survive fault injection: replicates
    # run on worker processes yet produce the exact series, fault
    # ledger, and loop counters of the serial path.
    from repro.experiments.resilience import run_resilience

    kwargs = dict(
        seed=0, intervals=24, config=fast_config, replications=3,
        warmup_ms=6_000.0,
    )
    serial = run_resilience(jobs=1, **kwargs)
    parallel = run_resilience(jobs=4, **kwargs)
    assert len(parallel.replicates) == 3
    for a, b in zip(serial.replicates, parallel.replicates):
        assert a.seed == b.seed
        assert a.observed_rt == b.observed_rt
        assert a.satisfied == b.satisfied
        assert a.faults == b.faults
        assert a.reports_dropped == b.reports_dropped
        assert a.allocation_retries == b.allocation_retries
        assert a.total_violation_area == b.total_violation_area
