"""End-to-end integration tests on the scaled-down configuration.

These exercise the full stack — workload -> cluster -> buffer managers
-> agents -> coordinator -> LP -> allocation — and assert the paper's
qualitative behaviours (convergence to the goal, memory give-back,
Example 2 sharing effect) rather than absolute numbers.
"""

from repro.cluster.cluster import Cluster
from repro.core.controller import GoalOrientedController
from repro.experiments.calibration import measure_static_rt
from repro.experiments.runner import Simulation, default_workload
from repro.workload.generator import WorkloadGenerator


def steady_rt(fast_config, workload, fraction, seed=3):
    return measure_static_rt(
        workload, 1, fraction, fast_config, seed=seed,
        warmup_ms=20_000, measure_ms=40_000,
    )


def test_controller_reaches_an_achievable_goal(fast_config):
    workload = default_workload(fast_config)
    # Pick a goal in the middle of the reachable band.
    rt_lo = steady_rt(fast_config, workload, 5 / 6)
    rt_hi = steady_rt(fast_config, workload, 1 / 4)
    goal = 0.5 * (rt_lo + rt_hi)
    workload = workload.with_goal(1, goal)
    sim = Simulation(
        config=fast_config, workload=workload, seed=7,
        warmup_ms=10_000.0,
    )
    sim.run(intervals=50)
    satisfied = sim.satisfied(1)
    assert any(satisfied), (
        f"goal {goal:.2f} ms never satisfied; last RTs "
        f"{sim.controller.series[1].observed_rt.values[-5:]}"
    )
    # Once reached, the controller should keep finding satisfying
    # partitions regularly (not a one-off fluke).
    first = satisfied.index(True)
    tail = satisfied[first:]
    assert sum(tail) / len(tail) > 0.3


def test_memory_given_back_when_goal_relaxed(fast_config):
    workload = default_workload(fast_config)
    rt_lo = steady_rt(fast_config, workload, 5 / 6)
    rt_hi = steady_rt(fast_config, workload, 1 / 4)
    tight = rt_lo + 0.25 * (rt_hi - rt_lo)
    loose = rt_lo + 0.9 * (rt_hi - rt_lo)
    workload = workload.with_goal(1, tight)
    sim = Simulation(
        config=fast_config, workload=workload, seed=11,
        warmup_ms=10_000.0,
    )
    sim.run(intervals=40)
    dedicated_tight = sim.dedicated_bytes(1)
    sim.controller.set_goal(1, loose)
    sim.run(intervals=40)
    dedicated_loose = sim.dedicated_bytes(1)
    assert dedicated_loose < dedicated_tight


def test_response_time_anticorrelates_with_memory(fast_config):
    """Figure 2's core visual: RT tracks dedicated memory inversely."""
    workload = default_workload(fast_config)
    cluster = Cluster(fast_config, seed=5)
    controller = GoalOrientedController(cluster, goals={1: 4.0})
    generator = WorkloadGenerator(cluster, workload, sink=controller)
    generator.start()
    cluster.env.run(until=10_000)
    controller.start()

    rts = []
    deds = []

    def record(ctrl, idx):
        series = ctrl.series[1]
        if series.observed_rt.values:
            rts.append(series.observed_rt.values[-1])
            deds.append(series.dedicated_bytes.values[-1])

    controller.on_interval(record)
    # Force the allocation through its range by toggling the goal.
    for goal in (2.0, 20.0, 2.0, 20.0):
        controller.set_goal(1, goal)
        cluster.env.run(
            until=cluster.env.now
            + 10 * fast_config.observation_interval_ms
        )
    n = len(rts)
    assert n > 20
    mean_rt = sum(rts) / n
    mean_ded = sum(deds) / n
    cov = sum(
        (rt - mean_rt) * (ded - mean_ded) for rt, ded in zip(rts, deds)
    )
    assert cov < 0  # inverse relationship


def test_two_goal_classes_with_sharing_shrink_k2(fast_config):
    """§7.4 / Example 2: under full sharing, class 2 lives off class 1's
    dedicated buffer and needs (almost) none of its own."""
    from repro.experiments.multiclass import multiclass_workload
    from dataclasses import replace
    from repro.cluster.config import NodeParameters

    config = replace(
        fast_config,
        node=NodeParameters(buffer_bytes=2 * fast_config.node.buffer_bytes),
    )

    def tail_dedicated(sharing, seed=13):
        workload = multiclass_workload(
            config, goal1_ms=4.0, goal2_ms=12.0, sharing=sharing
        )
        sim = Simulation(
            config=config, workload=workload, seed=seed,
            warmup_ms=10_000.0,
        )
        sim.run(intervals=40)
        values = sim.controller.series[2].dedicated_bytes.values[-10:]
        return sum(values) / len(values)

    ded_disjoint = tail_dedicated(0.0)
    ded_shared = tail_dedicated(1.0)
    assert ded_shared < ded_disjoint


def test_full_run_is_reproducible(fast_config):
    workload = default_workload(fast_config)

    def run(seed):
        sim = Simulation(
            config=fast_config, workload=workload, seed=seed,
            warmup_ms=5_000.0,
        )
        sim.run(intervals=15)
        return (
            tuple(sim.controller.series[1].observed_rt.values),
            tuple(sim.controller.series[1].dedicated_bytes.values),
        )

    assert run(21) == run(21)
    assert run(21) != run(22)
