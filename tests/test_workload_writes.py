"""Integration tests for write workloads through the generator."""

from dataclasses import replace

import pytest

from repro.cluster.cluster import Cluster
from repro.experiments.runner import Simulation
from repro.txn.manager import TransactionManager
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import ClassSpec, WorkloadSpec


def with_writes(workload, class_id, fraction):
    return WorkloadSpec(classes=[
        replace(c, write_fraction=fraction) if c.class_id == class_id
        else c
        for c in workload.classes
    ])


def test_write_fraction_validated():
    with pytest.raises(ValueError):
        ClassSpec(
            class_id=1, goal_ms=5.0, pages=(0,), write_fraction=1.5
        )


def test_generator_requires_txn_manager_for_writes(
    fast_config, fast_workload
):
    workload = with_writes(fast_workload, 1, 0.3)
    cluster = Cluster(fast_config, seed=0)
    with pytest.raises(ValueError):
        WorkloadGenerator(cluster, workload)


def test_write_workload_commits_transactions(fast_config, fast_workload):
    workload = with_writes(fast_workload, 1, 0.4)
    cluster = Cluster(fast_config, seed=1)
    manager = TransactionManager(cluster)
    generator = WorkloadGenerator(
        cluster, workload, txn_manager=manager
    )
    generator.start()
    cluster.env.run(until=20_000.0)
    assert manager.committed > 0
    # Updates reached the home logs.
    total_updates = sum(
        len(log.durable_records()) for log in manager.logs.values()
    )
    assert total_updates > 0
    # Nothing leaks.
    assert len(manager.active) <= 6  # only in-flight operations


def test_read_only_classes_bypass_transactions(
    fast_config, fast_workload
):
    workload = with_writes(fast_workload, 1, 0.4)
    cluster = Cluster(fast_config, seed=1)
    manager = TransactionManager(cluster)
    generator = WorkloadGenerator(
        cluster, workload, txn_manager=manager
    )
    generator.start()
    cluster.env.run(until=10_000.0)
    # Class 0 has write_fraction 0: its operations never began txns,
    # so every transaction belongs to class 1's arrival count order.
    assert manager.committed + manager.aborted <= (
        generator.operations_completed
    )


def test_simulation_auto_creates_txn_manager(fast_config, fast_workload):
    workload = with_writes(fast_workload, 1, 0.2)
    sim = Simulation(config=fast_config, workload=workload, seed=2)
    assert sim.txn_manager is not None
    sim.run(intervals=3)
    assert sim.txn_manager.committed > 0


def test_simulation_without_writes_has_no_txn_manager(
    fast_config, fast_workload
):
    sim = Simulation(config=fast_config, workload=fast_workload, seed=2)
    assert sim.txn_manager is None


def test_goal_loop_works_with_writes(fast_config, fast_workload):
    """The feedback loop must keep functioning when the goal class's
    operations run as update transactions (lock waits included in RT)."""
    workload = with_writes(fast_workload, 1, 0.25)
    sim = Simulation(
        config=fast_config, workload=workload, seed=3,
        warmup_ms=6_000.0,
    )
    sim.run(intervals=20)
    series = sim.controller.series[1]
    assert len(series.observed_rt.values) > 10
    # The controller still dedicates memory in response to violations.
    assert max(series.dedicated_bytes.values) > 0
