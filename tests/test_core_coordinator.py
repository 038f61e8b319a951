"""Unit tests for the per-class coordinator (phases b, c, d)."""

import numpy as np
import pytest

from repro.core.agent import AgentReport
from repro.core.coordinator import Coordinator
from repro.core.tolerance import GoalTolerance

MB = 1024 * 1024


def make_coordinator(goal_ms=10.0, num_nodes=3, **kwargs):
    kwargs.setdefault(
        "tolerance", GoalTolerance(low_side_slack=0.3)
    )
    return Coordinator(
        class_id=1,
        node_sizes=[2 * MB] * num_nodes,
        goal_ms=goal_ms,
        page_size=4096,
        **kwargs,
    )


def report(node_id, rt, rate=0.01, class_id=1, time=0.0):
    return AgentReport(
        node_id=node_id,
        class_id=class_id,
        arrivals=int(rate * 5000),
        completions=int(rate * 5000),
        mean_response_ms=rt,
        arrival_rate=rate,
        time=time,
    )


def feed(coordinator, rts, nogoal_rts=None, time=0.0):
    for node_id, rt in enumerate(rts):
        coordinator.receive_goal_report(report(node_id, rt, time=time))
    if nogoal_rts is not None:
        for node_id, rt in enumerate(nogoal_rts):
            coordinator.receive_nogoal_report(
                report(node_id, rt, class_id=0, time=time)
            )


def test_coordinator_requires_goal_class():
    with pytest.raises(ValueError):
        Coordinator(class_id=0, node_sizes=[MB], goal_ms=1.0)


def test_no_reports_is_satisfied_noop():
    coordinator = make_coordinator()
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.satisfied
    assert decision.observed_rt is None
    assert decision.new_allocation is None


def test_goal_met_within_tolerance_takes_no_action():
    coordinator = make_coordinator(goal_ms=10.0)
    feed(coordinator, [10.2, 9.9, 10.1], [1.0, 1.0, 1.0])
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.satisfied
    assert decision.new_allocation is None


def test_violation_triggers_warmup_before_window_ready():
    coordinator = make_coordinator(goal_ms=10.0)
    feed(coordinator, [20.0, 20.0, 20.0], [1.0, 1.0, 1.0])
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert not decision.satisfied
    assert decision.mechanism == "warmup"
    assert decision.new_allocation == pytest.approx([0.5 * MB] * 3)


def test_warmup_steps_generate_independent_points():
    """Successive warm-up proposals must differ along rotating axes so
    every iteration adds a linearly independent measure point."""
    coordinator = make_coordinator(goal_ms=5.0, num_nodes=3)
    allocations = []
    for i in range(4):
        feed(coordinator, [20.0] * 3, [1.0] * 3, time=float(i))
        decision = coordinator.evaluate(
            now=float(i), other_dedicated=[0, 0, 0]
        )
        assert decision.new_allocation is not None
        coordinator.receive_granted(list(decision.new_allocation))
        allocations.append(np.array(decision.new_allocation))
    assert coordinator.window.ready(now=3.0)


def test_lp_used_once_window_ready():
    coordinator = make_coordinator(goal_ms=10.0, settle_intervals=0)
    # Pre-fill the window with a clean linear response surface:
    # rt = 25 - 5/MB * total_alloc (per-node slope equal).
    allocs = [
        np.zeros(3),
        np.array([MB, 0.0, 0.0]),
        np.array([0.0, MB, 0.0]),
        np.array([0.0, 0.0, MB]),
    ]
    for i, alloc in enumerate(allocs):
        rt = 25.0 - 5.0 * alloc.sum() / MB
        coordinator.window.observe(alloc, rt, 1.0 + alloc.sum() / MB,
                                   time=float(i))
    coordinator.receive_granted([0, 0, MB])
    feed(coordinator, [20.0] * 3, [1.0] * 3, time=5.0)
    decision = coordinator.evaluate(now=5.0, other_dedicated=[0, 0, 0])
    assert decision.mechanism == "lp"
    # Goal 10 needs 3 MB total under the surface rt = 25 - 5*total.
    assert sum(decision.new_allocation) == pytest.approx(
        3 * MB, rel=0.01
    )


def _fill_window(coordinator):
    """Install a clean linear response surface into the window."""
    allocs = [
        np.zeros(3),
        np.array([MB, 0.0, 0.0]),
        np.array([0.0, MB, 0.0]),
        np.array([0.0, 0.0, MB]),
    ]
    for i, alloc in enumerate(allocs):
        rt = 25.0 - 5.0 * alloc.sum() / MB
        coordinator.window.observe(
            alloc, rt, 1.0 + alloc.sum() / MB, time=float(i)
        )


def test_settle_skips_measurement_after_lp_growth():
    coordinator = make_coordinator(goal_ms=10.0, settle_intervals=1)
    _fill_window(coordinator)
    coordinator.receive_granted([0, 0, MB])
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    first = coordinator.evaluate(now=5.0, other_dedicated=[0, 0, 0])
    assert first.mechanism == "lp"
    assert first.new_allocation is not None
    coordinator.receive_granted(list(first.new_allocation))
    points_before = len(coordinator.window)
    feed(coordinator, [15.0] * 3, [1.0] * 3, time=6.0)
    second = coordinator.evaluate(now=6.0, other_dedicated=[0, 0, 0])
    assert second.new_allocation is None       # settling
    assert len(coordinator.window) == points_before
    feed(coordinator, [15.0] * 3, [1.0] * 3, time=7.0)
    third = coordinator.evaluate(now=7.0, other_dedicated=[0, 0, 0])
    assert third.new_allocation is not None    # active again


def test_warmup_repartitions_do_not_settle():
    coordinator = make_coordinator(goal_ms=10.0, settle_intervals=1)
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    first = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert first.mechanism == "warmup"
    coordinator.receive_granted(list(first.new_allocation))
    feed(coordinator, [18.0] * 3, [1.0] * 3, time=1.0)
    second = coordinator.evaluate(now=1.0, other_dedicated=[0, 0, 0])
    assert second.new_allocation is not None   # no settling pause


def test_shrink_damping_limits_reduction():
    coordinator = make_coordinator(goal_ms=10.0, shrink_damping=0.5)
    coordinator.receive_granted([MB, MB, MB])
    proposal = np.zeros(3)
    damped = coordinator._damp_shrink(proposal)
    assert damped == pytest.approx([0.5 * MB] * 3)


def test_growth_not_damped():
    coordinator = make_coordinator(shrink_damping=0.5)
    coordinator.receive_granted([0, 0, 0])
    proposal = np.array([MB, MB, MB], dtype=float)
    assert coordinator._damp_shrink(proposal) is proposal


def test_set_goal_resets_tolerance():
    coordinator = make_coordinator(goal_ms=10.0)
    coordinator.tolerance.record_stable_interval(10.0)
    coordinator.tolerance.record_stable_interval(10.0)
    coordinator.tolerance.record_stable_interval(10.0)
    assert coordinator.tolerance.calibrated
    coordinator.set_goal(20.0)
    assert coordinator.goal_ms == 20.0
    assert not coordinator.tolerance.calibrated
    with pytest.raises(ValueError):
        coordinator.set_goal(0.0)


def test_weighted_rt_uses_arrival_rates():
    coordinator = make_coordinator()
    coordinator.receive_goal_report(report(0, rt=10.0, rate=0.03))
    coordinator.receive_goal_report(report(1, rt=20.0, rate=0.01))
    assert coordinator._weighted_rt(coordinator.goal_reports) == (
        pytest.approx(12.5)
    )


def test_nodes_without_completions_ignored_in_weighting():
    coordinator = make_coordinator()
    coordinator.receive_goal_report(report(0, rt=10.0, rate=0.01))
    empty = AgentReport(
        node_id=1, class_id=1, arrivals=0, completions=0,
        mean_response_ms=0.0, arrival_rate=0.0, time=0.0,
    )
    coordinator.receive_goal_report(empty)
    assert coordinator._weighted_rt(coordinator.goal_reports) == (
        pytest.approx(10.0)
    )


def test_allocation_respects_other_classes_memory():
    coordinator = make_coordinator(goal_ms=5.0)
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    decision = coordinator.evaluate(
        now=0.0, other_dedicated=[2 * MB, 0, 0]
    )
    # Node 0 is fully taken by another class -> nothing allocated there.
    assert decision.new_allocation[0] == 0.0


def test_allocation_rounded_to_pages():
    coordinator = make_coordinator(goal_ms=5.0)
    feed(coordinator, [20.0] * 3, [1.0] * 3)
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    for value in decision.new_allocation:
        assert value % 4096 == 0
