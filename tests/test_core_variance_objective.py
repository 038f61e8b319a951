"""Unit tests for the §8 variance-objective extension."""

import numpy as np
import pytest

from repro.core.coordinator import Coordinator
from repro.core.hyperplane import Hyperplane
from repro.core.lp import PartitioningProblem, solve_partitioning
from repro.core.measure import MeasureWindow
from repro.core.variance import VarianceProblem, solve_variance_partitioning

MB = 1024 * 1024


def asymmetric_planes():
    """Node 0 is slow (high intercept), node 1 faster; equal slopes.

    With a 12 ms goal, both nodes can be pulled exactly onto the goal
    (a = 2 MB, b = 0.5 MB), so the minimax optimum has zero spread.
    """
    return (
        Hyperplane(np.array([-4.0 / MB, 0.0]), 20.0),
        Hyperplane(np.array([0.0, -4.0 / MB]), 14.0),
    )


def test_variance_lp_equalizes_nodes():
    planes = asymmetric_planes()
    problem = VarianceProblem(
        node_planes=planes,
        weights=np.array([1.0, 1.0]),
        rt_goal=12.0,
        upper_bounds=np.array([2.0 * MB, 2.0 * MB]),
    )
    solution = solve_variance_partitioning(problem)
    assert solution is not None
    rt0 = planes[0].predict(solution.allocation)
    rt1 = planes[1].predict(solution.allocation)
    # Both nodes pulled onto the goal: (near) zero spread.
    assert abs(rt0 - rt1) < 0.2
    # The weighted mean meets the goal.
    assert 0.5 * (rt0 + rt1) == pytest.approx(12.0, abs=0.1)


def test_variance_objective_beats_nogoal_objective_on_spread():
    planes = asymmetric_planes()
    weights = np.array([1.0, 1.0])
    upper = np.array([2.0 * MB, 2.0 * MB])
    rt_goal = 11.0

    var_solution = solve_variance_partitioning(VarianceProblem(
        node_planes=planes, weights=weights, rt_goal=rt_goal,
        upper_bounds=upper,
    ))
    # The paper's default objective only constrains the weighted mean.
    mean_plane = Hyperplane(
        coefficients=0.5 * (planes[0].coefficients
                            + planes[1].coefficients),
        intercept=0.5 * (planes[0].intercept + planes[1].intercept),
    )
    nogoal_plane = Hyperplane(np.array([3.0 / MB, 1.0 / MB]), 1.0)
    default_solution = solve_partitioning(PartitioningProblem(
        goal_plane=mean_plane,
        nogoal_plane=nogoal_plane,
        rt_goal=rt_goal,
        upper_bounds=upper,
    ))

    def spread(allocation):
        rts = [p.predict(allocation) for p in planes]
        return max(rts) - min(rts)

    assert spread(var_solution.allocation) < spread(
        default_solution.allocation
    )


def test_variance_lp_respects_bounds():
    planes = asymmetric_planes()
    problem = VarianceProblem(
        node_planes=planes,
        weights=np.array([1.0, 3.0]),
        rt_goal=12.0,
        upper_bounds=np.array([1.0 * MB, 0.5 * MB]),
    )
    solution = solve_variance_partitioning(problem)
    allocation = np.asarray(solution.allocation)
    assert np.all(allocation >= -1e-6)
    assert np.all(allocation <= problem.upper_bounds + 1e-6)


def test_variance_lp_unreachable_goal_relaxes():
    planes = asymmetric_planes()
    problem = VarianceProblem(
        node_planes=planes,
        weights=np.array([1.0, 1.0]),
        rt_goal=0.5,  # unreachable even with full memory
        upper_bounds=np.array([2.0 * MB, 2.0 * MB]),
    )
    solution = solve_variance_partitioning(problem)
    assert solution is not None
    assert solution.relaxed


def test_variance_problem_validation():
    planes = asymmetric_planes()
    with pytest.raises(ValueError):
        VarianceProblem(
            node_planes=planes, weights=np.array([1.0]),
            rt_goal=5.0, upper_bounds=np.array([MB, MB]),
        )
    with pytest.raises(ValueError):
        VarianceProblem(
            node_planes=planes, weights=np.array([1.0, 1.0]),
            rt_goal=0.0, upper_bounds=np.array([MB, MB]),
        )


def test_window_fits_node_planes():
    window = MeasureWindow(num_nodes=2)
    # RT_0 = 20 - 8a/MB ; RT_1 = 12 - 4b/MB
    allocs = [(0.0, 0.0), (MB, 0.0), (0.0, MB)]
    for i, (a, b) in enumerate(allocs):
        rts = np.array([20.0 - 8.0 * a / MB, 12.0 - 4.0 * b / MB])
        window.observe(
            [a, b], rt_goal=float(rts.mean()), rt_nogoal=1.0,
            time=float(i), per_node_rt=rts,
        )
    planes = window.fit_node_planes()
    assert planes[0].predict([MB, 0.0]) == pytest.approx(12.0)
    assert planes[1].predict([0.0, MB]) == pytest.approx(8.0)


def test_window_without_node_rts_refuses_node_planes():
    window = MeasureWindow(num_nodes=1)
    window.observe([0.0], 10.0, 1.0, time=0.0)
    window.observe([MB], 5.0, 1.0, time=1.0)
    with pytest.raises(ValueError):
        window.fit_node_planes()


def test_coordinator_accepts_variance_objective():
    coordinator = Coordinator(
        class_id=1, node_sizes=[2 * MB] * 2, goal_ms=10.0,
    )
    assert coordinator.objective == "nogoal"
    coordinator.objective = "variance"
    assert coordinator.objective == "variance"
