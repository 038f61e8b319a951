"""Unit tests for the allocation → hit-rate → service-demand bridge."""

import pytest

from repro.analytic.bridge import (
    HitProfile,
    build_network,
    class_frames,
    hit_profile,
    predict_response,
    service_demands,
)
from repro.cluster.config import SystemConfig
from repro.experiments.runner import default_workload


def goal_spec(config, **overrides):
    workload = default_workload(config)
    spec = next(c for c in workload.classes if c.class_id == 1)
    if overrides:
        import dataclasses

        spec = dataclasses.replace(spec, **overrides)
    return spec


def test_hit_profile_validates_probabilities():
    with pytest.raises(ValueError):
        HitProfile(local=0.9, remote=0.9, disk=0.0)
    with pytest.raises(ValueError):
        HitProfile(local=-0.5, remote=0.5, disk=1.0)
    HitProfile(local=0.2, remote=0.3, disk=0.5)  # fine


def test_uniform_hit_profile_uses_disjoint_cache_model():
    # 3 nodes x 50 frames over 200 pages: the cost policy's last-copy
    # benefit makes node caches disjoint, so 150 distinct pages are
    # cached somewhere — local 50/200, remote 100/200, disk 50/200.
    config = SystemConfig(num_nodes=3)
    spec = goal_spec(config, pages=tuple(range(200)))
    profile = hit_profile(config, spec, frames_per_node=50.0)
    assert profile.local == pytest.approx(50 / 200)
    assert profile.remote == pytest.approx(100 / 200)
    assert profile.disk == pytest.approx(50 / 200)


def test_uniform_hit_profile_caps_distinct_at_database():
    # n*b >= P: everything is cached somewhere, disk hits vanish.
    config = SystemConfig(num_nodes=3)
    spec = goal_spec(config, pages=tuple(range(120)))
    profile = hit_profile(config, spec, frames_per_node=50.0)
    assert profile.disk == pytest.approx(0.0)
    assert profile.local == pytest.approx(50 / 120)
    assert profile.remote == pytest.approx(1.0 - 50 / 120)


def test_skewed_hit_profile_is_zipf_prefix_mass():
    config = SystemConfig(num_nodes=3)
    spec = goal_spec(config, pages=tuple(range(100)), skew=1.0)
    profile = hit_profile(config, spec, frames_per_node=10.0)
    assert profile.remote == 0.0
    # The 10 hottest of 100 Zipf(1.0) pages carry well over 10% of
    # the accesses but not everything.
    assert 0.3 < profile.local < 0.9
    assert profile.disk == pytest.approx(1.0 - profile.local)


def test_class_frames_dedicated_plus_shared_split():
    config = SystemConfig()
    workload = default_workload(config)
    page = config.page_size
    allocation = {1: 100 * page}
    frames = class_frames(config, workload, allocation)
    total = config.buffer_pages_per_node
    assert frames[1] == 100.0
    # The no-goal class gets the remaining pool (same rate and op size
    # as class 1, but class 1 is dedicated so it takes no share).
    assert frames[0] == pytest.approx(total - 100)
    assert sum(frames.values()) == pytest.approx(total)


def test_class_frames_zero_allocation_splits_by_rate():
    config = SystemConfig()
    workload = default_workload(config)
    frames = class_frames(config, workload, {})
    total = config.buffer_pages_per_node
    # Equal rates and op sizes: the pool splits evenly.
    assert frames[0] == pytest.approx(frames[1])
    assert sum(frames.values()) == pytest.approx(total)


def test_service_demands_fall_as_hits_rise():
    config = SystemConfig()
    spec = goal_spec(config)
    all_disk = service_demands(
        config, spec, HitProfile(local=0.0, remote=0.0, disk=1.0)
    )
    all_local = service_demands(
        config, spec, HitProfile(local=1.0, remote=0.0, disk=0.0)
    )
    assert all_local.cpu_total < all_disk.cpu_total
    assert all_local.disk_total == 0.0
    assert all_local.network == 0.0
    assert all_disk.disk_total > 0.0
    assert all_disk.network > 0.0


def test_build_network_shapes_and_population_floor():
    config = SystemConfig()
    workload = default_workload(config)
    network, meta = build_network(config, workload)
    assert network is not None
    assert not meta["saturated"]
    # n CPUs + n disks + one shared net station.
    assert network.num_stations == 2 * config.num_nodes + 1
    assert all(p >= 8 for p in network.population)
    assert all(z > 0 for z in network.think_ms)


def test_saturated_open_system_returns_no_network():
    config = SystemConfig()
    workload = default_workload(config, arrival_rate_per_node=10.0)
    network, meta = build_network(config, workload)
    assert network is None
    assert meta["saturated"]
    prediction = predict_response(config, workload)
    assert prediction.saturated
    assert prediction.response_of(1) == float("inf")


def test_predict_response_returns_per_class_times():
    config = SystemConfig()
    workload = default_workload(config)
    prediction = predict_response(config, workload, method="exact")
    assert set(prediction.response_ms) == {0, 1}
    assert all(rt > 0 for rt in prediction.response_ms.values())
    assert prediction.method == "exact"
    assert not prediction.saturated


def test_more_memory_means_faster_goal_class():
    config = SystemConfig()
    workload = default_workload(config)
    page = config.page_size
    # The two default classes have equal rates, so the no-allocation
    # pool already splits evenly; dedicate 3/4 to tip the balance.
    baseline = predict_response(config, workload, allocation={})
    dedicated = predict_response(
        config, workload,
        allocation={1: (3 * config.buffer_pages_per_node // 4) * page},
    )
    assert dedicated.response_of(1) < baseline.response_of(1)
