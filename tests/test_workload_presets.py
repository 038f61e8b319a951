"""Unit tests for the canned workload mixes."""

from repro.cluster.config import SystemConfig
from repro.workload.presets import oltp_dss_mix

from tests.workload_reference import uniform_multiclass


def test_oltp_dss_mix_shape():
    config = SystemConfig()
    workload = oltp_dss_mix(config)
    oltp = workload.spec_for(1)
    dss = workload.spec_for(2)
    background = workload.spec_for(0)
    assert oltp.goal_ms < dss.goal_ms
    assert oltp.pages_per_op < dss.pages_per_op
    assert oltp.skew > dss.skew
    assert background.goal_ms is None


def test_oltp_dss_page_sets_disjoint():
    config = SystemConfig()
    workload = oltp_dss_mix(config)
    sets = [set(c.pages) for c in workload.classes]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert sets[i].isdisjoint(sets[j])


def test_uniform_multiclass_builds_k_classes():
    config = SystemConfig()
    workload = uniform_multiclass(config, goals_ms=[3.0, 6.0, 12.0])
    assert [c.class_id for c in workload.goal_classes] == [1, 2, 3]
    assert workload.spec_for(2).goal_ms == 6.0
    assert any(not c.is_goal_class for c in workload.classes)


def test_uniform_multiclass_covers_database():
    config = SystemConfig()
    workload = uniform_multiclass(config, goals_ms=[5.0])
    covered = set()
    for spec in workload.classes:
        covered.update(spec.pages)
    assert covered == set(range(config.num_pages))


def test_uniform_multiclass_runs(fast_config):
    from repro.experiments.runner import Simulation

    workload = uniform_multiclass(
        fast_config, goals_ms=[5.0, 10.0], arrival_rate_per_node=0.01
    )
    sim = Simulation(config=fast_config, workload=workload, seed=3)
    sim.run(intervals=4)
    assert sim.controller.interval_index == 4
    assert set(sim.controller.series) == {1, 2}
