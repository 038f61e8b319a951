"""Integration tests: three goal classes, empty controllers, and the
variance objective in the closed loop."""

from dataclasses import replace

from repro.cluster.cluster import Cluster
from repro.core.controller import GoalOrientedController
from repro.experiments.runner import Simulation, default_workload
from repro.workload.generator import WorkloadGenerator

from tests.workload_reference import uniform_multiclass


def test_three_goal_classes_all_progress(fast_config):
    workload = uniform_multiclass(
        fast_config, goals_ms=[4.0, 8.0, 16.0],
        arrival_rate_per_node=0.012,
    )
    sim = Simulation(
        config=fast_config, workload=workload, seed=9,
        warmup_ms=6_000.0,
    )
    sim.run(intervals=30)
    for class_id in (1, 2, 3):
        series = sim.controller.series[class_id]
        assert len(series.observed_rt.values) > 10
    # The tighter the goal, the more memory ends up dedicated
    # (monotone in expectation; assert the extremes).
    tail = 8

    def mean_dedicated(class_id):
        values = sim.controller.series[class_id].dedicated_bytes.values
        return sum(values[-tail:]) / tail

    assert mean_dedicated(1) > mean_dedicated(3)


def test_total_memory_invariant_with_three_classes(fast_config):
    workload = uniform_multiclass(
        fast_config, goals_ms=[4.0, 8.0, 16.0],
        arrival_rate_per_node=0.012,
    )
    sim = Simulation(
        config=fast_config, workload=workload, seed=9,
        warmup_ms=6_000.0,
    )
    for _ in range(15):
        sim.run(intervals=1)
        for node in sim.cluster.nodes:
            assert (
                node.buffers.total_dedicated_bytes()
                + node.buffers.pool(0).capacity * node.buffers.page_size
                == fast_config.node.buffer_bytes
            )


def test_controller_without_goal_classes(fast_config, fast_workload):
    """A goals-free controller is a pure monitor: it must tick along
    without coordinators and without crashing."""
    cluster = Cluster(fast_config, seed=0)
    controller = GoalOrientedController(cluster, goals={})
    generator = WorkloadGenerator(
        cluster, fast_workload, sink=controller
    )
    generator.start()
    controller.start()
    cluster.env.run(until=4 * fast_config.observation_interval_ms + 1)
    assert controller.interval_index == 4
    assert controller.series == {}


def test_variance_objective_closed_loop_asymmetric(fast_config):
    """The §8 objective in the loop with per-node asymmetric arrivals."""
    workload = default_workload(fast_config, goal_ms=6.0)
    workload = replace(
        workload,
        classes=[
            replace(c, node_rates=(0.03, 0.01, 0.01))
            if c.class_id == 1 else c
            for c in workload.classes
        ],
    )
    cluster = Cluster(fast_config, seed=4)
    controller = GoalOrientedController(cluster, goals={1: 6.0})
    controller.coordinators[1].objective = "variance"
    generator = WorkloadGenerator(cluster, workload, sink=controller)
    generator.start()
    cluster.env.run(until=6_000.0)
    controller.start()
    cluster.env.run(until=cluster.env.now + 25 * fast_config.observation_interval_ms + 1)
    series = controller.series[1]
    # The loop ran, observed, and allocated under the variance LP.
    assert len(series.observed_rt.values) > 10
    assert max(series.dedicated_bytes.values) > 0
    assert controller.coordinators[1].lp_solves >= 1
