"""Tests for the fault layer and the injector process."""

from repro.cluster.cluster import Cluster
from repro.faults import FaultInjector, FaultLayer, FaultSchedule
from repro.sim.rng import RandomStreams

from tests.test_cluster_batch import disk_read


def _run_with(fast_config, spec: str, until: float, seed: int = 0):
    cluster = Cluster(fast_config, seed=seed)
    injector = FaultInjector(cluster, FaultSchedule.parse(spec))
    injector.start()
    cluster.env.run(until=until)
    return cluster, injector


# -- FaultLayer --------------------------------------------------------


def test_layer_idle_draws_no_randomness():
    rng = RandomStreams(0)
    layer = FaultLayer(rng)
    state = rng.stream("faults/drops").getstate()
    for _ in range(50):
        assert not layer.should_drop()
    assert rng.stream("faults/drops").getstate() == state


def test_layer_drop_probability_extremes():
    layer = FaultLayer(RandomStreams(0))
    layer.drop_p = 1.0
    assert all(layer.should_drop() for _ in range(20))
    layer.drop_p = 0.0
    assert not any(layer.should_drop() for _ in range(20))


def test_down_delay_counts_down_and_self_clears():
    layer = FaultLayer(RandomStreams(0))
    layer.mark_down(1, until_ms=500.0)
    assert layer.down_delay(1, now=100.0) == 400.0
    assert layer.down_delay(0, now=100.0) == 0.0
    assert layer.down_delay(1, now=600.0) == 0.0
    assert 1 not in layer._down_until  # entry removed once elapsed


def test_coordinator_down_state_counts_crashes_and_expires():
    layer = FaultLayer(RandomStreams(0))
    assert not layer.coordinator_down(0.0)
    assert layer.coord_crashes == 0
    layer.mark_coordinator_down(until_ms=500.0)
    assert layer.coord_crashes == 1
    assert layer.coordinator_down(499.0)
    assert not layer.coordinator_down(500.0)
    # A second, shorter outage still counts; the longer window wins.
    layer.mark_coordinator_down(until_ms=800.0)
    layer.mark_coordinator_down(until_ms=600.0)
    assert layer.coord_crashes == 3
    assert layer.coordinator_down(700.0)


def test_partition_state_per_node_and_self_clears():
    layer = FaultLayer(RandomStreams(0))
    layer.mark_partitioned((0, 2), until_ms=400.0)
    assert layer.partitioned_nodes(100.0) == (0, 2)
    assert layer.partitioned_nodes(400.0) == ()
    assert not layer._partition_until  # entries removed once elapsed


# -- injector: state transitions ---------------------------------------


def test_crash_wipes_cache_and_marks_node_down(fast_config):
    cluster = Cluster(fast_config, seed=0)

    def reader():
        for page in range(0, 30, 3):  # pages homed at node 0
            yield from cluster.access_page(0, page, 0)

    cluster.env.process(reader())
    injector = FaultInjector(
        cluster, FaultSchedule.parse("crash@4000:node=0:restart=1500")
    )
    injector.start()
    cluster.env.run(until=4500.0)
    assert cluster.nodes[0].buffers.cached_pages() == []
    assert injector.layer.down_delay(0, 4500.0) == 1000.0
    [fault] = injector.injected
    assert fault.kind == "crash"
    assert fault.node == 0
    assert fault.dropped_pages > 0


def test_netloss_episode_sets_and_restores_drop_probability(fast_config):
    cluster, injector = _run_with(
        fast_config, "netloss@1000:dur=2000:p=0.4", until=1500.0
    )
    assert injector.layer.drop_p == 0.4
    cluster.env.run(until=3500.0)
    assert injector.layer.drop_p == 0.0


def test_netdelay_episode_adds_and_removes_latency(fast_config):
    cluster, injector = _run_with(
        fast_config, "netdelay@1000:dur=1000:extra=2.5", until=1500.0
    )
    assert injector.layer.extra_ms == 2.5
    assert cluster.network.faults is injector.layer
    cluster.env.run(until=2500.0)
    assert injector.layer.extra_ms == 0.0


def test_diskslow_episode_scales_and_restores_service(fast_config):
    cluster, injector = _run_with(
        fast_config, "diskslow@1000:node=2:dur=1000:factor=4", until=1500.0
    )
    assert cluster.nodes[2].disk.fault_factor == 4.0
    assert cluster.nodes[0].disk.fault_factor == 1.0
    cluster.env.run(until=2500.0)
    assert cluster.nodes[2].disk.fault_factor == 1.0


def test_empty_schedule_spawns_no_process(fast_config):
    cluster = Cluster(fast_config, seed=0)
    injector = FaultInjector(cluster, FaultSchedule([]))
    injector.start()
    cluster.env.run()
    assert cluster.env.now == 0.0
    assert injector.injected == []
    # The layer is still attached (hot paths see it, but it is inert).
    assert cluster.faults is injector.layer


def test_injection_ledger_is_deterministic(fast_config):
    spec = (
        "crash:every=3000:node=any:restart=500;"
        "netloss@5000:dur=1000:p=0.2"
    )
    _, first = _run_with(fast_config, spec, until=12_000.0, seed=5)
    _, second = _run_with(fast_config, spec, until=12_000.0, seed=5)
    assert first.injected == second.injected
    _, other = _run_with(fast_config, spec, until=12_000.0, seed=6)
    assert len(other.injected) == len(first.injected)


def test_coordcrash_event_marks_coordinator_down(fast_config):
    cluster, injector = _run_with(
        fast_config, "coordcrash@1000:dur=2000", until=1500.0
    )
    assert injector.layer.coordinator_down(1500.0)
    assert injector.layer.coord_crashes == 1
    [fault] = injector.injected
    assert fault.kind == "coordcrash"
    assert fault.node is None
    cluster.env.run(until=3500.0)
    assert not injector.layer.coordinator_down(3500.0)


def test_partition_event_cuts_listed_nodes(fast_config):
    cluster, injector = _run_with(
        fast_config, "partition@1000:nodes=0,1:dur=2000", until=1500.0
    )
    assert injector.layer.partitioned_nodes(1500.0) == (0, 1)
    [fault] = injector.injected
    assert fault.kind == "partition"
    assert fault.nodes == (0, 1)
    cluster.env.run(until=3500.0)
    assert injector.layer.partitioned_nodes(3500.0) == ()


def test_crashed_node_access_waits_out_the_downtime(fast_config):
    cluster = Cluster(fast_config, seed=0)
    injector = FaultInjector(
        cluster, FaultSchedule.parse("crash@1000:node=0:restart=2000")
    )
    injector.start()
    done = {}

    def reader():
        yield cluster.env.timeout(1100.0)  # node 0 is down until 3000
        yield from cluster.access_page(0, 0, 0)
        done["at"] = cluster.env.now

    cluster.env.process(reader())
    cluster.env.run(until=10_000.0)
    assert done["at"] >= 3000.0


def test_disk_slowdown_stretches_read_times(fast_config):
    plain = Cluster(fast_config, seed=0)
    slowed = Cluster(fast_config, seed=0)
    slowed.nodes[0].disk.fault_factor = 5.0
    times = {}

    def read_on(cluster, key):
        def proc():
            yield from disk_read(
                cluster.nodes[0].disk, fast_config.page_size
            )
            times[key] = cluster.env.now
        return proc

    plain.env.process(read_on(plain, "plain")())
    slowed.env.process(read_on(slowed, "slowed")())
    plain.env.run()
    slowed.env.run()
    assert times["slowed"] > 4.0 * times["plain"]
