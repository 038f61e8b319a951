"""Unit tests for coordinator placement and migration (§5)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.messages import MessageKind
from repro.core.controller import GoalOrientedController
from repro.workload.generator import WorkloadGenerator

from tests.test_cluster_batch import cpu_consume


def build(fast_config, fast_workload, seed=0, **kwargs):
    cluster = Cluster(fast_config, seed=seed)
    controller = GoalOrientedController(cluster, goals={1: 5.0}, **kwargs)
    generator = WorkloadGenerator(cluster, fast_workload, sink=controller)
    return cluster, controller, generator


def test_migration_changes_home(fast_config, fast_workload):
    cluster, controller, _ = build(fast_config, fast_workload)
    old = controller.coordinator_home[1]
    new = (old + 1) % fast_config.num_nodes
    controller.migrate_coordinator(1, new)
    assert controller.coordinator_home[1] == new
    assert controller.migrations == 1


def test_migration_accounts_messages(fast_config, fast_workload):
    cluster, controller, _ = build(fast_config, fast_workload)
    new = (controller.coordinator_home[1] + 1) % fast_config.num_nodes
    controller.migrate_coordinator(1, new)
    acc = cluster.network.accounting
    # Every node except the new home learns about the move.
    assert acc.messages_by_kind[MessageKind.MIGRATION] == (
        fast_config.num_nodes - 1
    )
    assert acc.messages_by_kind[MessageKind.MIGRATION_STATE] == 1


def test_migration_to_same_home_is_free(fast_config, fast_workload):
    cluster, controller, _ = build(fast_config, fast_workload)
    home = controller.coordinator_home[1]
    controller.migrate_coordinator(1, home)
    assert controller.migrations == 0
    assert cluster.network.accounting.total_bytes == 0


def test_migration_validation(fast_config, fast_workload):
    _, controller, _ = build(fast_config, fast_workload)
    with pytest.raises(KeyError):
        controller.migrate_coordinator(9, 0)
    with pytest.raises(ValueError):
        controller.migrate_coordinator(1, 99)


def test_migration_messages_count_as_control_traffic(
    fast_config, fast_workload
):
    cluster, controller, _ = build(fast_config, fast_workload)
    new = (controller.coordinator_home[1] + 1) % fast_config.num_nodes
    controller.migrate_coordinator(1, new)
    acc = cluster.network.accounting
    assert acc.control_bytes == acc.total_bytes  # nothing else sent yet


def test_feedback_loop_survives_migration(fast_config, fast_workload):
    cluster, controller, generator = build(fast_config, fast_workload)
    generator.start()
    controller.start()
    cluster.env.run(until=3 * fast_config.observation_interval_ms + 1)
    controller.migrate_coordinator(
        1, (controller.coordinator_home[1] + 1) % fast_config.num_nodes
    )
    cluster.env.run(until=8 * fast_config.observation_interval_ms + 1)
    # The loop keeps running and the coordinator keeps its state.
    assert controller.interval_index == 8
    assert len(controller.coordinators[1].window) > 0


def test_auto_balance_moves_coordinator_off_busy_node(
    fast_config, fast_workload
):
    cluster, controller, generator = build(
        fast_config, fast_workload, auto_balance=True
    )
    # Pin all coordinators to node 0 and make node 0 very busy.
    controller.coordinator_home[1] = 0

    def hog():
        while True:
            yield from cpu_consume(cluster.nodes[0].cpu, 1_000_000)

    cluster.env.process(hog())
    generator.start()
    controller.start()
    cluster.env.run(until=4 * fast_config.observation_interval_ms + 1)
    assert controller.coordinator_home[1] != 0
    assert controller.migrations >= 1
