"""Unit tests for the baseline partitioning strategies."""

import numpy as np
import pytest

from repro.baselines import (
    COORDINATOR_TYPES,
    ClassFencingCoordinator,
    DynamicTuningCoordinator,
    FragmentFencingCoordinator,
    make_controller,
)
from repro.cluster.cluster import Cluster
from repro.core.agent import AgentReport
from repro.core.coordinator import Coordinator

MB = 1024 * 1024


def make(coordinator_cls, goal_ms=10.0, **kwargs):
    return coordinator_cls(
        class_id=1,
        node_sizes=[2 * MB] * 3,
        goal_ms=goal_ms,
        page_size=4096,
        **kwargs,
    )


def feed(coordinator, rts, rate=0.01):
    for node_id, rt in enumerate(rts):
        coordinator.receive_goal_report(
            AgentReport(
                node_id=node_id, class_id=1, arrivals=50, completions=50,
                mean_response_ms=rt, arrival_rate=rate, time=0.0,
            )
        )


# -- fragment fencing ---------------------------------------------------


def test_fragment_fencing_seeds_on_first_violation():
    coordinator = make(FragmentFencingCoordinator)
    feed(coordinator, [20.0] * 3)
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.mechanism == "fragment-fencing"
    assert all(b > 0 for b in decision.new_allocation)


def test_fragment_fencing_scales_by_rt_ratio():
    coordinator = make(FragmentFencingCoordinator, goal_ms=10.0)
    coordinator.receive_granted([MB, MB, MB])
    feed(coordinator, [20.0] * 3)  # 2x too slow -> double the buffer
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert sum(decision.new_allocation) == pytest.approx(
        6 * MB, rel=0.02
    )


def test_fragment_fencing_clamps_extreme_ratios():
    coordinator = make(FragmentFencingCoordinator, goal_ms=10.0)
    coordinator.receive_granted([MB, MB, MB])
    feed(coordinator, [1000.0] * 3)  # 100x too slow, clamped to 3x
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert sum(decision.new_allocation) <= 3 * 3 * MB + 4096


def test_fragment_fencing_distributes_by_arrival_rate():
    coordinator = make(FragmentFencingCoordinator, goal_ms=10.0)
    coordinator.receive_granted([MB, MB, MB])
    coordinator.receive_goal_report(AgentReport(
        node_id=0, class_id=1, arrivals=90, completions=90,
        mean_response_ms=20.0, arrival_rate=0.03, time=0.0,
    ))
    coordinator.receive_goal_report(AgentReport(
        node_id=1, class_id=1, arrivals=30, completions=30,
        mean_response_ms=20.0, arrival_rate=0.01, time=0.0,
    ))
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.new_allocation[0] > decision.new_allocation[1]


# -- class fencing ------------------------------------------------------


def test_class_fencing_probes_until_two_hit_points():
    coordinator = make(ClassFencingCoordinator)
    feed(coordinator, [20.0] * 3)
    coordinator.receive_hit_info(0, hits=50, misses=50)
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.mechanism == "class-fencing"
    assert all(b >= 0 for b in decision.new_allocation)


def test_class_fencing_extrapolates_hit_rate():
    coordinator = make(ClassFencingCoordinator, goal_ms=10.0)
    # Two prior measurements: 1 MB -> 50 % hits, 2 MB -> 60 % hits.
    coordinator._hit_points = [(1 * MB, 0.5), (2 * MB, 0.6)]
    coordinator.receive_granted([2 * MB / 3] * 3)
    feed(coordinator, [20.0] * 3)
    coordinator.receive_hit_info(0, hits=60, misses=40)
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    # Needs miss rate 0.4 * (10/20) = 0.2 -> hit rate 0.8 -> slope
    # 0.1/MB from 0.6 at 2 MB -> 4 MB total.
    assert sum(decision.new_allocation) == pytest.approx(
        4 * MB, rel=0.05
    )


def test_class_fencing_updates_same_buffer_measurement():
    coordinator = make(ClassFencingCoordinator)
    coordinator.receive_granted([MB, 0, 0])
    coordinator.receive_hit_info(0, hits=50, misses=50)
    coordinator._observe_hit_rate()
    coordinator.receive_hit_info(0, hits=80, misses=20)
    coordinator._observe_hit_rate()
    assert len(coordinator._hit_points) == 1
    assert coordinator._hit_points[0][1] == pytest.approx(0.8)


# -- dynamic tuning -----------------------------------------------------


def test_dynamic_tuning_grows_on_violation():
    coordinator = make(DynamicTuningCoordinator, goal_ms=10.0)
    feed(coordinator, [20.0] * 3)
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.mechanism == "dynamic-tuning"
    grown = np.subtract(
        decision.new_allocation, coordinator.current_allocation
    )
    assert np.count_nonzero(grown) == 1  # one greedy step
    assert grown.sum() > 0


def test_dynamic_tuning_releases_when_overperforming():
    coordinator = make(DynamicTuningCoordinator, goal_ms=10.0)
    coordinator.receive_granted([MB, MB, MB])
    coordinator.tolerance.reset()
    feed(coordinator, [2.0] * 3)  # index 0.2 < release threshold
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert sum(decision.new_allocation) < 3 * MB


def test_dynamic_tuning_grows_busiest_node_first():
    coordinator = make(DynamicTuningCoordinator, goal_ms=10.0)
    coordinator.receive_goal_report(AgentReport(
        node_id=2, class_id=1, arrivals=90, completions=90,
        mean_response_ms=20.0, arrival_rate=0.03, time=0.0,
    ))
    coordinator.receive_goal_report(AgentReport(
        node_id=0, class_id=1, arrivals=10, completions=10,
        mean_response_ms=20.0, arrival_rate=0.001, time=0.0,
    ))
    decision = coordinator.evaluate(now=0.0, other_dedicated=[0, 0, 0])
    assert decision.new_allocation[2] > 0
    assert decision.new_allocation[0] == 0


# -- wiring -------------------------------------------------------------


def test_make_controller_swaps_coordinators(fast_config):
    cluster = Cluster(fast_config, seed=0)
    controller = make_controller(
        "fragment-fencing", cluster, goals={1: 5.0}
    )
    assert isinstance(
        controller.coordinators[1], FragmentFencingCoordinator
    )


def test_make_controller_default_is_lp(fast_config):
    cluster = Cluster(fast_config, seed=0)
    controller = make_controller("goal-oriented", cluster, goals={1: 5.0})
    assert type(controller.coordinators[1]) is Coordinator


def test_make_controller_unknown_name(fast_config):
    cluster = Cluster(fast_config, seed=0)
    with pytest.raises(ValueError):
        make_controller("magic", cluster, goals={1: 5.0})


def test_registry_contains_all_strategies():
    assert set(COORDINATOR_TYPES) == {
        "goal-oriented", "fragment-fencing", "class-fencing",
        "dynamic-tuning",
    }
