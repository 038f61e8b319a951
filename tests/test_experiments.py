"""Unit tests for the experiment harness (fast, scaled-down runs)."""

import pytest

from repro.experiments.calibration import (
    GoalRange,
    calibrate_goal_range,
    measure_static_rt,
)
from repro.experiments.convergence import (
    SATISFIED_BEFORE_CHANGE,
    ConvergenceSettings,
    _next_goal,
)
from repro.experiments.multiclass import (
    doubled_cache_config,
    multiclass_workload,
)
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import (
    Simulation,
    build_base_experiment,
    default_workload,
)
from repro.experiments.table1 import (
    PAPER_NODE_COUNTS,
    PAPER_TABLE1,
    build_problem,
    build_window,
    measure_row,
    synthetic_points,
)
from repro.sim.rng import RandomStreams


def test_default_workload_matches_paper_base(fast_config):
    workload = default_workload(fast_config)
    assert len(workload.classes) == 2
    goal = workload.spec_for(1)
    nogoal = workload.spec_for(0)
    assert goal.pages_per_op == 4
    assert nogoal.goal_ms is None
    assert set(goal.pages).isdisjoint(nogoal.pages)


def test_simulation_requires_workload(fast_config):
    with pytest.raises(ValueError):
        Simulation(config=fast_config, workload=None)


def test_simulation_run_advances_intervals(fast_config, fast_workload):
    sim = Simulation(config=fast_config, workload=fast_workload, seed=0)
    sim.run(intervals=3)
    assert sim.controller.interval_index == 3
    observed = sim.controller.series[1].observed_rt.values
    assert not observed or observed[-1] > 0
    assert len(sim.satisfied(1)) == 3


def test_simulation_warmup_delays_controller(fast_config, fast_workload):
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=0,
        warmup_ms=3 * fast_config.observation_interval_ms,
    )
    sim.run(intervals=2)
    assert sim.controller.interval_index == 2
    assert sim.env.now == pytest.approx(
        5 * fast_config.observation_interval_ms, abs=0.01
    )


def test_build_base_experiment_defaults():
    sim = build_base_experiment(seed=0)
    assert sim.config.num_nodes == 3
    assert sim.controller.goal_of(1) == 3.0


def test_measure_static_rt_monotone(fast_config):
    """More dedicated memory must not slow the goal class down."""
    workload = default_workload(fast_config)
    rt_small = measure_static_rt(
        workload, 1, 1 / 3, fast_config, seed=3,
        warmup_ms=20_000, measure_ms=30_000,
    )
    rt_large = measure_static_rt(
        workload, 1, 2 / 3, fast_config, seed=3,
        warmup_ms=20_000, measure_ms=30_000,
    )
    assert rt_large < rt_small


def test_calibrate_goal_range_ordered(fast_config):
    workload = default_workload(fast_config)
    goal_range = calibrate_goal_range(
        workload, class_id=1, config=fast_config, seed=3,
        warmup_ms=20_000, measure_ms=30_000,
    )
    assert goal_range.goal_min_ms < goal_range.goal_max_ms


def test_next_goal_differs_significantly():
    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=20.0)
    rng = RandomStreams(0).stream("g")
    current = 10.0
    for _ in range(20):
        new = _next_goal(rng, goal_range, current, min_change=0.25)
        assert goal_range.goal_min_ms <= new <= goal_range.goal_max_ms
        assert abs(new - current) > 0.25 * current
        current = new


def test_next_goal_narrow_range_jumps_to_far_end():
    goal_range = GoalRange(class_id=1, goal_min_ms=10.0, goal_max_ms=10.5)
    rng = RandomStreams(0).stream("g")
    assert _next_goal(rng, goal_range, 10.0, 0.5) == 10.5
    assert _next_goal(rng, goal_range, 10.5, 0.5) == 10.0


def test_synthetic_points_shape():
    points = synthetic_points(num_nodes=4, count=6, seed=1)
    assert len(points) == 6
    for alloc, rt_goal, rt_nogoal in points:
        assert len(alloc) == 4
        assert rt_goal > 0 and rt_nogoal > 0


def test_build_window_is_ready():
    for n in (2, 5, 8):
        window = build_window(n, seed=0)
        assert window.ready()


def test_build_problem_is_solvable():
    from repro.core.lp import solve_partitioning

    problem = build_problem(num_nodes=5, seed=0)
    solution = solve_partitioning(problem)
    assert solution is not None


def test_measure_row_produces_positive_times():
    row = measure_row(num_nodes=5, repetitions=3)
    assert row.lin_independence_ms > 0
    assert row.approximation_ms > 0
    assert row.optimization_ms > 0
    assert row.overall_ms == pytest.approx(
        row.lin_independence_ms + row.approximation_ms
        + row.optimization_ms
    )


def test_paper_table1_reference_complete():
    assert set(PAPER_TABLE1) == set(PAPER_NODE_COUNTS)
    for values in PAPER_TABLE1.values():
        assert len(values) == 4


def test_multiclass_workload_sharing_bounds():
    config = doubled_cache_config()
    workload = multiclass_workload(config, goal1_ms=4.0, goal2_ms=10.0,
                                   sharing=0.5)
    k1 = set(workload.spec_for(1).pages)
    k2 = set(workload.spec_for(2).pages)
    overlap = len(k1 & k2) / len(k2)
    assert overlap == pytest.approx(0.5, abs=0.01)


def test_multiclass_workload_requires_ordered_goals():
    config = doubled_cache_config()
    with pytest.raises(ValueError):
        multiclass_workload(config, goal1_ms=10.0, goal2_ms=4.0)


def test_doubled_cache_config_doubles_memory():
    base_bytes = 2 * 1024 * 1024
    config = doubled_cache_config()
    assert config.node.buffer_bytes == 2 * base_bytes


def test_format_table_alignment():
    text = format_table(
        ["a", "bb"], [[1, 2.5], [30, 4.0]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_series_zips_columns():
    text = format_series(["x", "y"], [[1, 2], [10.0, 20.0]])
    assert "10.000" in text and "2" in text


def test_convergence_settings_defaults():
    settings = ConvergenceSettings()
    assert SATISFIED_BEFORE_CHANGE == 4
    assert settings.skew == 0.0
