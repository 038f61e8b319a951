"""Unit + integration tests for node restarts (cache loss)."""

from repro.cluster.cluster import Cluster
from repro.experiments.runner import Simulation


def test_restart_drops_all_cached_pages(fast_config):
    cluster = Cluster(fast_config, seed=0)

    def reader():
        for page in range(0, 30, 3):  # pages homed at node 0
            yield from cluster.access_page(0, page, 0)

    cluster.env.process(reader())
    cluster.env.run()
    assert cluster.nodes[0].buffers.cached_pages()
    dropped = cluster.restart_node(0)
    assert dropped > 0
    assert cluster.nodes[0].buffers.cached_pages() == []
    # Directory no longer lists node 0 anywhere.
    for page in range(fast_config.num_pages):
        assert 0 not in cluster.directory.holders(page)


def test_restart_preserves_allocation_table(fast_config):
    cluster = Cluster(fast_config, seed=0)
    cluster.apply_allocation(1, [8 * 4096] * fast_config.num_nodes)
    cluster.restart_node(1)
    assert cluster.nodes[1].buffers.dedicated_bytes(1) == 8 * 4096


def test_restart_resets_heat(fast_config):
    cluster = Cluster(fast_config, seed=0)

    def reader():
        for _ in range(5):
            yield from cluster.access_page(0, 0, 0)

    cluster.env.process(reader())
    cluster.env.run()
    manager = cluster.nodes[0].buffers
    assert manager.accumulated_heat.slot_of(0) is not None
    cluster.restart_node(0)
    assert manager.accumulated_heat.slot_of(0) is None


def test_node_keeps_working_after_restart(fast_config):
    cluster = Cluster(fast_config, seed=0)

    def reader(result):
        level = yield from cluster.access_page(0, 0, 0)
        result.append(level)

    before, after = [], []
    cluster.env.process(reader(before))
    cluster.env.run()
    cluster.restart_node(0)
    cluster.env.process(reader(after))
    cluster.env.run()
    from repro.bufmgr.costs import AccessLevel

    assert before == [AccessLevel.DISK]
    assert after == [AccessLevel.DISK]  # cold again after restart
    assert cluster.nodes[0].buffers.contains(0)


def test_feedback_loop_recovers_from_restart(fast_config, fast_workload):
    """The §7.2-style adaptivity claim under a node failure: after a
    restart wipes one node's cache, the controller re-converges."""
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=11,
        warmup_ms=10_000.0,
    )
    sim.run(intervals=25)
    sim.cluster.restart_node(0)
    sim.run(intervals=25)
    satisfied_after = sim.satisfied(1)[-15:]
    assert any(satisfied_after), (
        "controller failed to re-converge after the node restart"
    )


def test_restart_prunes_global_heat_of_fully_cold_pages(fast_config):
    """Discard paths forget global-heat bookkeeping for last copies."""
    cluster = Cluster(fast_config, seed=0)

    def reader():
        for page in range(0, 30, 3):  # pages homed at node 0
            yield from cluster.access_page(0, page, 0)

    cluster.env.process(reader())
    cluster.env.run()
    assert cluster.global_heat._tracker.slot_of(0) is not None
    cluster.restart_node(0)
    # Only node 0 cached those pages, so their cluster-wide heat
    # bookkeeping is deleted on demand (§6).
    for page in range(0, 30, 3):
        if not cluster.directory.cached_anywhere(page):
            assert cluster.global_heat._tracker.slot_of(page) is None


def test_restart_resets_interval_hit_counters(fast_config):
    cluster = Cluster(fast_config, seed=0)

    def reader():
        for page in range(0, 30, 3):
            yield from cluster.access_page(0, page, 0)
            yield from cluster.access_page(0, page, 0)  # second: a hit

    cluster.env.process(reader())
    cluster.env.run()
    buffers = cluster.nodes[0].buffers
    assert buffers.hits_by_class.get(0, 0) > 0
    cluster.restart_node(0)
    # A restarted node's counting state does not survive: stale counts
    # would otherwise poison the first post-restart hit-info deltas.
    assert buffers.hits_by_class == {}
    assert buffers.misses_by_class == {}


def test_restart_notifies_listeners_with_time(fast_config):
    cluster = Cluster(fast_config, seed=0)
    seen = []
    cluster.add_restart_listener(
        lambda node_id, now: seen.append((node_id, now))
    )

    def clock():
        yield cluster.env.timeout(1234.0)
        cluster.restart_node(2)

    cluster.env.process(clock())
    cluster.env.run()
    assert seen == [(2, 1234.0)]
