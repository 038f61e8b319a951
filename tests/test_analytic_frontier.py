"""Unit tests for feasibility-frontier extraction (the prescreen core)."""

import pytest

from repro.analytic.frontier import (
    BINDING,
    INFEASIBLE,
    SLACK,
    pair_grid,
    prescreen_goal_pairs,
    prescreen_goals,
)
from repro.experiments.figure2 import sweep_goals
from repro.experiments.calibration import GoalRange
from repro.experiments.multiclass import (
    doubled_cache_config,
    multiclass_workload,
)
from repro.experiments.runner import default_workload


@pytest.fixture
def quick_system(fast_config):
    return fast_config, default_workload(fast_config)


def test_prescreen_requires_goals(quick_system):
    config, workload = quick_system
    with pytest.raises(ValueError):
        prescreen_goals(config, workload, [])


def test_prescreen_classifies_all_goals(quick_system):
    config, workload = quick_system
    goals = sweep_goals(GoalRange(1, 2.0, 8.0), 200)
    report = prescreen_goals(config, workload, goals)
    assert report.grid_size == 200
    assert all(
        p.regime in (INFEASIBLE, BINDING, SLACK) for p in report.points
    )
    # The quick system's frontier sits inside 2..8 ms: both infeasible
    # and binding goals must appear.
    counts = report.regime_counts()
    assert counts.get(INFEASIBLE, 0) > 0
    assert counts.get(BINDING, 0) > 0


def test_prescreen_regimes_are_goal_monotone(quick_system):
    # Tighter goals are never easier: walking goals upward, infeasible
    # can turn binding and binding can turn slack, never backwards.
    config, workload = quick_system
    goals = sweep_goals(GoalRange(1, 2.0, 8.0), 100)
    report = prescreen_goals(config, workload, goals)
    order = {INFEASIBLE: 0, BINDING: 1, SLACK: 2}
    ranks = [order[p.regime] for p in report.points]
    assert ranks == sorted(ranks)


def test_prescreen_selection_covers_boundaries(quick_system):
    config, workload = quick_system
    goals = sweep_goals(GoalRange(1, 2.0, 8.0), 100)
    report = prescreen_goals(config, workload, goals)
    selected = set(report.selected)
    assert 0 in selected and 99 in selected
    for i in range(1, 100):
        if report.points[i].regime != report.points[i - 1].regime:
            assert {i - 1, i} <= selected
    # Budget: ~5% of the grid, hard-capped at 10%.
    assert report.frontier_size <= 10
    assert report.selected_goals() == sorted(report.selected_goals())


def test_prescreen_budget_cap_scales_with_grid(quick_system):
    config, workload = quick_system
    goals = sweep_goals(GoalRange(1, 2.0, 8.0), 1000)
    report = prescreen_goals(config, workload, goals)
    assert report.frontier_size <= 100
    assert report.solver_ms < 1000.0  # the <1 s acceptance bar
    fields = report.trace_fields()
    assert fields["grid"] == 1000
    assert fields["frontier"] == report.frontier_size
    assert fields["solves"] == report.solves
    assert fields["ms"] > 0


def test_binding_points_carry_minimal_allocation(quick_system):
    config, workload = quick_system
    goals = sweep_goals(GoalRange(1, 2.0, 8.0), 50)
    report = prescreen_goals(config, workload, goals)
    for point in report.points:
        if point.regime == BINDING:
            assert point.dedicated_bytes_per_node > 0
            assert point.predicted_rt_ms <= point.goal_ms
        elif point.regime == INFEASIBLE:
            assert point.dedicated_bytes_per_node is None
            assert point.predicted_rt_ms > point.goal_ms
        else:
            assert point.dedicated_bytes_per_node == 0


# -- goal pairs -------------------------------------------------------


def test_pair_grid_is_row_major_box():
    grid = pair_grid((1.0, 3.0), (10.0, 30.0), 9)
    assert len(grid) == 9
    assert grid[0] == (1.0, 10.0)
    assert grid[-1] == (3.0, 30.0)
    # Row-major: the second axis varies fastest.
    assert grid[1] == (1.0, 20.0)
    with pytest.raises(ValueError):
        pair_grid((1.0, 3.0), (10.0, 30.0), 0)


def test_prescreen_pairs_classifies_and_selects(fast_config):
    config = doubled_cache_config(fast_config)
    workload = multiclass_workload(config, 3.0, 8.0)
    grid = pair_grid((2.0, 6.0), (6.0, 14.0), 64)
    report = prescreen_goal_pairs(config, workload, grid)
    assert report.grid_size == 64
    assert report.shape == (8, 8)
    assert report.frontier_size >= 1
    assert report.frontier_size <= max(report.budget, 2)
    for g1, g2 in report.selected_pairs():
        assert (g1, g2) in grid
    fields = report.trace_fields()
    assert fields["feasible"] + fields["infeasible"] == 64


def test_prescreen_pairs_feasible_iff_some_split_works(fast_config):
    config = doubled_cache_config(fast_config)
    workload = multiclass_workload(config, 3.0, 8.0)
    # An absurdly loose pair must be feasible, an impossible one not.
    report = prescreen_goal_pairs(
        config, workload, [(1e6, 2e6), (1e-6, 2e-6)]
    )
    assert report.points[0].feasible
    assert not report.points[1].feasible
    assert report.points[0].dedicated_bytes_per_node is not None
    assert report.points[1].dedicated_bytes_per_node is None
