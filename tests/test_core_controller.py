"""Integration tests for the feedback-loop controller inside the DES."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.messages import CONTROL_KINDS, MessageKind
from repro.core.controller import GoalOrientedController
from repro.workload.generator import WorkloadGenerator


def build_sim(fast_config, fast_workload, seed=0, **kwargs):
    cluster = Cluster(fast_config, seed=seed)
    goals = {c.class_id: c.goal_ms for c in fast_workload.goal_classes}
    controller = GoalOrientedController(cluster, goals, **kwargs)
    generator = WorkloadGenerator(cluster, fast_workload, sink=controller)
    generator.start()
    controller.start()
    return cluster, controller, generator


def test_interval_pacing(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=5 * fast_config.observation_interval_ms + 1)
    assert controller.interval_index == 5


def test_series_recorded_per_interval(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=6 * fast_config.observation_interval_ms + 1)
    series = controller.series[1]
    assert len(series.goal.values) == 6
    assert len(series.satisfied) == 6
    assert len(series.observed_rt.values) >= 1


def test_allocations_applied_to_cluster(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=10 * fast_config.observation_interval_ms + 1)
    # With a tight default goal the controller must have dedicated
    # memory to class 1 at some point.
    assert max(controller.series[1].dedicated_bytes.values) > 0


def test_dedicated_memory_never_exceeds_total(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    for _ in range(12):
        cluster.env.run(
            until=cluster.env.now + fast_config.observation_interval_ms
        )
        for node in cluster.nodes:
            assert (
                node.buffers.total_dedicated_bytes()
                + node.buffers.pool(0).capacity * node.buffers.page_size
                == fast_config.node.buffer_bytes
            )


def test_control_messages_accounted(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=10 * fast_config.observation_interval_ms + 1)
    acc = cluster.network.accounting
    control = sum(
        acc.messages_by_kind.get(kind, 0) for kind in CONTROL_KINDS
    )
    assert control > 0
    assert acc.messages_by_kind.get(MessageKind.AGENT_REPORT, 0) > 0


def test_control_traffic_is_tiny_fraction(fast_config, fast_workload):
    """§7.5: control messages < 0.1 % of total traffic."""
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=15 * fast_config.observation_interval_ms + 1)
    acc = cluster.network.accounting
    assert acc.control_bytes / acc.total_bytes < 0.001


def test_set_goal_changes_recorded_goal(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    cluster.env.run(until=2 * fast_config.observation_interval_ms + 1)
    controller.set_goal(1, 42.0)
    cluster.env.run(until=4 * fast_config.observation_interval_ms + 1)
    assert controller.series[1].goal.values[-1] == 42.0


def test_interval_hooks_invoked(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    seen = []
    controller.on_interval(lambda ctrl, idx: seen.append(idx))
    cluster.env.run(until=4 * fast_config.observation_interval_ms + 1)
    assert seen == [1, 2, 3, 4]


def test_controller_cannot_start_twice(fast_config, fast_workload):
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    with pytest.raises(RuntimeError):
        controller.start()


def test_coordinator_homes_spread_round_robin(fast_config):
    cluster = Cluster(fast_config, seed=0)
    controller = GoalOrientedController(
        cluster, goals={1: 5.0, 2: 8.0, 3: 9.0, 4: 11.0}
    )
    homes = controller.coordinator_home
    assert homes[1] == 1
    assert homes[2] == 2
    assert homes[3] == 0  # 3 % 3 nodes
    assert homes[4] == 1


def test_unknown_class_completions_ignored(fast_config, fast_workload):
    """Operations of classes without coordinators must not crash."""
    cluster, controller, _ = build_sim(fast_config, fast_workload)
    controller.on_arrival(0, 77, now=cluster.env.now)
    controller.on_complete(0, 77, 1.0, now=cluster.env.now)
    cluster.env.run(until=2 * fast_config.observation_interval_ms + 1)
    assert controller.interval_index == 2
