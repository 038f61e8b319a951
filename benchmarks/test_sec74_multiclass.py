"""Section 7.4 — multiple goal classes with disjoint and shared pages.

(a) Disjoint page sets: both goal classes converge independently.
(b) Rising data sharing: the dedicated memory of the class with the
    looser goal (k2) shrinks, because it profits from k1's buffers —
    eventually k2 meets its goal without any dedicated buffer at all
    (Example 2 of §3).
"""

from repro.experiments.multiclass import (
    doubled_cache_config,
    multiclass_workload,
    run_sharing_sweep,
)
from repro.experiments.reporting import emit
from repro.experiments.runner import Simulation

SHARINGS = (0.0, 0.5, 1.0)


def test_sharing_sweep(benchmark):
    result = benchmark.pedantic(
        lambda: run_sharing_sweep(
            sharings=SHARINGS, intervals=50, tail=15, seed=7
        ),
        rounds=1,
        iterations=1,
    )
    emit()
    emit(result.to_text())
    points = {p.sharing: p for p in result.points}

    # (b) k2's dedicated memory shrinks as sharing rises.
    assert result.k2_dedicated_decreases()
    assert (
        points[1.0].dedicated_k2_bytes
        < 0.7 * points[0.0].dedicated_k2_bytes
        or points[1.0].dedicated_k2_bytes == 0.0
    )
    # And k2 still performs: its observed RT stays in the same range
    # or better despite holding less dedicated memory.
    assert (
        points[1.0].observed_rt_k2
        <= 1.5 * points[0.0].observed_rt_k2
    )


def test_disjoint_classes_both_adapt(benchmark):
    """(a) With disjoint page sets both coordinators operate without
    interfering: both dedicate memory and both reach satisfaction."""
    config = doubled_cache_config()
    workload = multiclass_workload(
        config, goal1_ms=4.0, goal2_ms=10.0, sharing=0.0
    )

    def run():
        sim = Simulation(
            config=config, workload=workload, seed=11,
            warmup_ms=20_000.0,
        )
        sim.run(intervals=45)
        return sim

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    sat1 = sim.satisfied(1)
    sat2 = sim.satisfied(2)
    assert any(sat1), "class 1 never satisfied its goal"
    assert any(sat2), "class 2 never satisfied its goal"
    assert max(sim.controller.series[1].dedicated_bytes.values) > 0
    assert max(sim.controller.series[2].dedicated_bytes.values) > 0
