"""Unit tests for measure points and the coordinator's point window."""

import numpy as np
import pytest

from repro.core.agent import AgentReport
from repro.core.measure import MeasurePoint, MeasureWindow


def test_observe_creates_points():
    window = MeasureWindow(num_nodes=2)
    window.observe([100.0, 0.0], rt_goal=10.0, rt_nogoal=2.0, time=1.0)
    assert len(window) == 1
    assert window.newest.rt_goal == 10.0


def test_same_allocation_updates_with_smoothing():
    window = MeasureWindow(num_nodes=2, smoothing=0.5)
    window.observe([100.0, 0.0], rt_goal=10.0, rt_nogoal=2.0, time=1.0)
    window.observe([100.0, 0.0], rt_goal=20.0, rt_nogoal=4.0, time=2.0)
    assert len(window) == 1
    assert window.newest.rt_goal == pytest.approx(15.0)
    assert window.newest.rt_nogoal == pytest.approx(3.0)
    assert window.newest.time == 2.0


def test_smoothing_one_replaces():
    window = MeasureWindow(num_nodes=1, smoothing=1.0)
    window.observe([0.0], rt_goal=10.0, rt_nogoal=1.0, time=1.0)
    window.observe([0.0], rt_goal=30.0, rt_nogoal=3.0, time=2.0)
    assert window.newest.rt_goal == 30.0


def test_invalid_smoothing_rejected():
    with pytest.raises(ValueError):
        MeasureWindow(num_nodes=1, smoothing=0.0)


def test_wrong_allocation_shape_rejected():
    window = MeasureWindow(num_nodes=2)
    with pytest.raises(ValueError):
        window.observe([1.0], rt_goal=1.0, rt_nogoal=1.0, time=0.0)


def test_ready_after_n_plus_one_independent_points():
    window = MeasureWindow(num_nodes=2)
    window.observe([0.0, 0.0], 10.0, 1.0, time=0.0)
    assert not window.ready()
    window.observe([100.0, 0.0], 9.0, 1.1, time=1.0)
    assert not window.ready()
    window.observe([0.0, 100.0], 9.5, 1.2, time=2.0)
    assert window.ready()


def test_dependent_points_do_not_make_ready():
    window = MeasureWindow(num_nodes=2)
    # All allocations on a line in 2-D.
    window.observe([0.0, 0.0], 10.0, 1.0, time=0.0)
    window.observe([100.0, 100.0], 9.0, 1.1, time=1.0)
    window.observe([200.0, 200.0], 8.0, 1.2, time=2.0)
    window.observe([300.0, 300.0], 7.0, 1.3, time=3.0)
    assert not window.ready()
    assert len(window.selected_points()) == 2


def test_selection_prefers_most_recent():
    window = MeasureWindow(num_nodes=1)
    window.observe([0.0], 10.0, 1.0, time=0.0)
    window.observe([100.0], 9.0, 1.0, time=1.0)
    window.observe([200.0], 8.0, 1.0, time=2.0)
    points = window.selected_points()
    assert len(points) == 2
    assert points[0].allocation[0] == 200.0   # newest is the reference
    assert points[1].allocation[0] == 100.0   # most recent independent


def test_fit_planes_recovers_linear_surface():
    window = MeasureWindow(num_nodes=2)
    # RT_goal = 20 - 0.01*a - 0.02*b ; RT_nogoal = 1 + 0.005*(a+b)
    for i, (a, b) in enumerate([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]):
        window.observe(
            [a, b],
            rt_goal=20.0 - 0.01 * a - 0.02 * b,
            rt_nogoal=1.0 + 0.005 * (a + b),
            time=float(i),
        )
    goal_plane, nogoal_plane = window.fit_planes()
    assert goal_plane.coefficients == pytest.approx([-0.01, -0.02])
    assert goal_plane.intercept == pytest.approx(20.0)
    assert nogoal_plane.coefficients == pytest.approx([0.005, 0.005])


def test_fit_planes_requires_ready_window():
    window = MeasureWindow(num_nodes=2)
    window.observe([0.0, 0.0], 10.0, 1.0, time=0.0)
    with pytest.raises(ValueError):
        window.fit_planes()


def test_max_age_expires_stale_points():
    window = MeasureWindow(num_nodes=1, max_age=10.0)
    window.observe([0.0], 10.0, 1.0, time=0.0)
    window.observe([100.0], 9.0, 1.0, time=8.0)
    assert window.ready(now=9.0)
    assert not window.ready(now=50.0)  # the t=0 point aged out


def test_history_limit_bounds_memory():
    window = MeasureWindow(num_nodes=1)
    for i in range(3 * window.history_limit):
        window.observe([float(i * 10)], 10.0, 1.0, time=float(i))
    assert len(window) == window.history_limit == 8


def test_same_allocation_tolerance():
    point = MeasurePoint(
        allocation=np.array([4096.0]), rt_goal=1.0, rt_nogoal=1.0, time=0.0
    )
    assert point.same_allocation([4096.2])
    assert not point.same_allocation([8192.0])


def test_one_page_apart_is_a_new_point_at_any_node_size():
    """The rule is absolute: at a 1 GiB node a one-page move is a new
    partitioning (a relative tolerance would call it unchanged)."""
    gib = float(2**30)
    point = MeasurePoint(
        allocation=[gib], rt_goal=1.0, rt_nogoal=1.0, time=0.0
    )
    assert not point.same_allocation([gib + 4096.0])
    assert point.same_allocation([gib + 0.5])
    window = MeasureWindow(num_nodes=2)
    window.observe([gib, gib], rt_goal=10.0, rt_nogoal=2.0, time=0.0)
    window.observe([gib + 4096.0, gib], rt_goal=9.0, rt_nogoal=2.0,
                   time=1.0)
    assert len(window) == 2
    assert window.newest.rt_goal == 9.0


def test_coordinator_takes_a_one_page_move_at_1gib():
    """A proposal one page from the current allocation is a move, not
    "no change" (which would force a warm-up nudge instead)."""
    from repro.core.coordinator import Coordinator

    gib = 2**30
    coordinator = Coordinator(
        class_id=1, node_sizes=[2 * gib], goal_ms=10.0, page_size=4096,
        settle_intervals=0,
    )
    coordinator.receive_granted([gib])
    coordinator._propose = lambda rt_goal, upper, now: (
        [gib + 4096.0], "lp", False
    )
    coordinator.receive_goal_report(AgentReport(
        node_id=0, class_id=1, arrivals=50, completions=50,
        mean_response_ms=20.0, arrival_rate=0.01, time=0.0,
    ))
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0])
    assert decision.mechanism == "lp"
    assert decision.new_allocation == [gib + 4096.0]
