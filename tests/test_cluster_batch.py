"""Access path equivalence: ``access_run`` / ``access_page`` vs. a reference.

Every page access runs through one state machine, the pooled
``_FetchChain``: ``access_run`` drives it over a run of pages and
``access_page`` over a single page.  Both must be *event-identical* to
the reference below — the data-shipping access written as a plain
generator of ``occupy`` holds (§3): same simulated clock at every
completion, same kernel sequence numbers, same directory/accounting/
cost-observer state, and the same access level for every page.  These
tests drive all three over the same schedules — including concurrent
operations contending for CPUs, disks, and the network, and a fault
schedule that takes nodes down mid-run — and require bit-equal end
states.
"""

from repro.bufmgr.costs import AccessLevel
from repro.cluster.cluster import Cluster
from repro.cluster.config import NodeParameters, SystemConfig
from repro.cluster.messages import MessageKind, message_size
from repro.faults import FaultInjector, FaultSchedule


def cpu_consume(cpu, instructions):
    """Generator: hold ``cpu`` for ``instructions`` instructions."""
    return cpu.resource.occupy(instructions / cpu._mips_ms)


def disk_read(disk, nbytes):
    """Generator: one random read of ``nbytes`` bytes on ``disk``.

    Holds the arm for the access time (stretched by an active slowdown),
    as the fetch chain does.
    """
    service = disk.params.access_ms(nbytes)
    if disk.fault_factor != 1.0:
        service *= disk.fault_factor
    yield from disk.resource.occupy(service)


def _reference_access(cluster, node_id, page_id, class_id, paths=None):
    """Generator: one data-shipping page access, built from occupy holds.

    The executable specification of ``_FetchChain``.  Returns the
    :class:`AccessLevel` the page was served from.  ``paths`` (a dict)
    counts the fault delays taken: ``"origin_down"`` when the
    initiating node is restarting, ``"home_down"`` when the page's home
    disk is unreachable.
    """
    node = cluster.nodes[node_id]
    env = cluster.env
    network = cluster.network
    cpu = cluster.config.cpu
    page_size = cluster.config.page_size
    ship_bytes = message_size(MessageKind.PAGE_SHIP, page_size)
    faults = cluster.faults
    start = env.now

    if faults is not None:
        # A crashed node serves nothing until its restart delay has
        # elapsed; operations initiated there stall.
        delay = faults.down_delay(node_id, start)
        if delay > 0.0:
            if paths is not None:
                paths["origin_down"] = paths.get("origin_down", 0) + 1
            yield env.timeout(delay)
    yield from cpu_consume(node.cpu, cpu.instructions_buffer_lookup)
    hit, dropped = node.buffers.probe(page_id, class_id)
    if dropped:
        cluster.directory.unregister_many(dropped, node_id)
    if hit:
        level = AccessLevel.LOCAL
        elapsed = env.now - start
        cluster.costs.observe(level, elapsed)
        if cluster.telemetry is not None:
            cluster.telemetry.on_access(node_id, class_id, level, elapsed)
        return level

    level = None
    remote_id = cluster.directory.remote_holder(page_id, node_id)
    if remote_id is not None:
        yield from network.send_message(MessageKind.PAGE_REQUEST)
        remote = cluster.nodes[remote_id]
        yield from cpu_consume(
            remote.cpu,
            cpu.instructions_message + cpu.instructions_buffer_lookup,
        )
        # The copy may have been evicted while our request was in
        # flight; fall back to disk in that case.
        if remote.buffers.contains(page_id):
            yield from network.transfer(MessageKind.PAGE_SHIP, ship_bytes)
            yield from cpu_consume(node.cpu, cpu.instructions_page_handling)
            level = AccessLevel.REMOTE
    if level is None:
        home_id = cluster.database.home(page_id)
        home = cluster.nodes[home_id]
        if faults is not None and home_id != node_id:
            # The home disk is unreachable while its node restarts.
            delay = faults.down_delay(home_id, env.now)
            if delay > 0.0:
                if paths is not None:
                    paths["home_down"] = paths.get("home_down", 0) + 1
                yield env.timeout(delay)
        if home_id == node_id:
            yield from disk_read(home.disk, page_size)
        else:
            yield from network.send_message(MessageKind.PAGE_REQUEST)
            yield from cpu_consume(home.cpu, cpu.instructions_message)
            yield from disk_read(home.disk, page_size)
            yield from network.transfer(MessageKind.PAGE_SHIP, ship_bytes)
        yield from cpu_consume(node.cpu, cpu.instructions_page_handling)
        level = AccessLevel.DISK

    dropped = node.buffers.admit(page_id, class_id)
    if dropped:
        cluster.directory.unregister_many(dropped, node_id)
    if node.buffers.contains(page_id):
        cluster.directory.register(page_id, node_id)
    elapsed = env.now - start
    cluster.costs.observe(level, elapsed)
    if cluster.telemetry is not None:
        cluster.telemetry.on_access(node_id, class_id, level, elapsed)
    return level


# -- runners: one operation's page run, recording the levels served ----
# All three take ``paths``; only the reference counts into it.


def _reference_run(cluster, node_id, class_id, pages, levels, paths=None):
    for page_id in pages:
        levels.append((yield from _reference_access(
            cluster, node_id, page_id, class_id, paths
        )))


def _page_loop(cluster, node_id, class_id, pages, levels, paths=None):
    for page_id in pages:
        levels.append(
            (yield from cluster.access_page(node_id, page_id, class_id))
        )


def _batched(cluster, node_id, class_id, pages, levels, paths=None):
    # access_run reports the level of the run's last page.
    levels.append(
        (yield from cluster.access_run(node_id, pages, class_id))
    )


def _last_page_levels(levels_per_op):
    return [levels[-1] if levels else None for levels in levels_per_op]


# -- schedules and fingerprints ----------------------------------------


def _config(num_nodes=4, num_pages=200):
    return SystemConfig(
        num_nodes=num_nodes,
        num_pages=num_pages,
        node=NodeParameters(buffer_bytes=128 * 1024),
    )


def _schedule(num_nodes, num_pages, ops=120):
    """Deterministic operation list: (node, class, [pages])."""
    schedule = []
    for i in range(ops):
        node = (i * 5) % num_nodes
        pages = [
            (i * 7 + j * 31) % num_pages for j in range(1 + i % 4)
        ]
        schedule.append((node, i % 3, pages))
    return schedule


#: Node 1 crashes mid-run (its cache is wiped and it stays down for a
#: while, so accesses initiated there and disk reads homed there both
#: stall), a latency spike overlaps it, and node 0's disk slows down.
FAULT_SPEC = (
    "crash@20:node=1:restart=40;"
    "netdelay@10:extra=0.5:dur=50;"
    "diskslow@5:node=0:factor=3:dur=60"
)


def _fingerprint(cluster):
    acct = cluster.network.accounting
    return {
        "now": cluster.env.now,
        "seq": cluster.env._seq,
        "bytes": {
            kind.value: n for kind, n in sorted(
                acct.bytes_by_kind.items(), key=lambda kv: kv[0].value
            )
        },
        "messages": {
            kind.value: n for kind, n in sorted(
                acct.messages_by_kind.items(), key=lambda kv: kv[0].value
            )
        },
        "costs": (
            cluster.costs.cost_local,
            cluster.costs.cost_remote,
            cluster.costs.cost_disk,
        ),
        "observations": [
            cluster.costs.observations(level) for level in AccessLevel
        ],
        "cached": sorted(
            (node.node_id, page)
            for node in cluster.nodes
            for page in node.buffers.cached_pages()
        ),
        "hits": [
            dict(node.buffers.hits_by_class) for node in cluster.nodes
        ],
        "misses": [
            dict(node.buffers.misses_by_class) for node in cluster.nodes
        ],
        "global_heat": (
            len(cluster.global_heat),
            cluster.global_heat.pending_count,
        ),
        "disk_busy": [node.disk.utilization() for node in cluster.nodes],
    }


def _run(runner, schedule, seed=3, gap=0.11, faults=None, setup=None,
         paths=None, **config_kwargs):
    """Drive ``schedule`` through ``runner``; returns the end state, the
    completion times and the levels each operation's pages returned."""
    cluster = Cluster(_config(**config_kwargs), seed=seed)
    if setup is not None:
        setup(cluster)
    if faults is not None:
        FaultInjector(cluster, FaultSchedule.parse(faults)).start()
    completions = []
    levels_per_op = []

    def op(node_id, class_id, pages):
        levels = []
        levels_per_op.append(levels)
        yield from runner(cluster, node_id, class_id, pages, levels, paths)
        completions.append(cluster.env.now)

    def driver():
        for node_id, class_id, pages in schedule:
            cluster.env.process(op(node_id, class_id, pages))
            yield cluster.env.timeout(gap)

    cluster.env.process(driver())
    cluster.env.run()
    return _fingerprint(cluster), completions, levels_per_op


def _assert_parity(schedule, **kwargs):
    """access_page and access_run both match the reference exactly."""
    ref_state, ref_done, ref_levels = _run(_reference_run, schedule, **kwargs)
    assert all(level is not None for ops in ref_levels for level in ops)
    page_state, page_done, page_levels = _run(_page_loop, schedule, **kwargs)
    assert page_done == ref_done
    assert page_levels == ref_levels
    assert page_state == ref_state
    run_state, run_done, run_levels = _run(_batched, schedule, **kwargs)
    assert run_done == ref_done
    assert _last_page_levels(run_levels) == _last_page_levels(ref_levels)
    assert run_state == ref_state


def test_batched_run_is_event_identical_to_page_loop():
    schedule = _schedule(4, 200)
    _assert_parity(schedule)
    # The same schedule with a node crashing and the network and a disk
    # slowing down mid-run: origin-node stalls, the chain's home-restart
    # delay and fault-inflated service times all take part.
    paths = {}
    _assert_parity(schedule, faults=FAULT_SPEC, paths=paths)
    assert paths.get("origin_down", 0) > 0
    assert paths.get("home_down", 0) > 0


def test_batched_run_parity_under_contention():
    # Two nodes over few pages: heavy CPU/disk/network contention, so
    # the inline grant and the queued Request fallback both run.
    _assert_parity(_schedule(2, 40, ops=200), num_nodes=2, num_pages=40)


def test_batched_run_parity_with_dedicated_pools():
    def with_pools(cluster):
        # Dedicated buffers for classes 1 and 2 exercise the §6
        # promotion branches inside probe/admit.
        cluster.apply_allocation(1, [32 * 1024] * 3)
        cluster.apply_allocation(2, [16 * 1024] * 3)

    _assert_parity(
        _schedule(3, 120, ops=150), seed=9, gap=0.17, setup=with_pools,
        num_nodes=3, num_pages=120,
    )


def test_empty_run_is_a_no_op():
    cluster = Cluster(_config(), seed=0)
    result = []

    def driver():
        result.append((yield from cluster.access_run(0, [], 0)))

    cluster.env.process(driver())
    cluster.env.run()
    assert result == [None]
    assert cluster.env.now == 0.0
    assert all(
        not node.buffers.cached_pages() for node in cluster.nodes
    )


def test_workload_generator_routes_through_batched_path(monkeypatch):
    """The open-system generator runs each operation as one fetch chain
    run of ``pages_per_op`` pages, and owns the chain itself."""
    from repro.cluster.cluster import _FetchChain
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.spec import ClassSpec, WorkloadSpec

    cluster = Cluster(_config(), seed=1)
    calls = []
    original = _FetchChain._run

    def spy(chain, pages, class_id):
        calls.append((chain._node_id, tuple(pages), class_id,
                      chain._fast_proc))
        return original(chain, pages, class_id)

    monkeypatch.setattr(_FetchChain, "_run", spy)
    spec = WorkloadSpec(classes=[
        ClassSpec(
            class_id=1, goal_ms=10.0, pages=tuple(range(100)),
            arrival_rate_per_node=0.4, pages_per_op=3,
        ),
    ])
    generator = WorkloadGenerator(cluster, spec)
    generator.start()
    cluster.env.run(until=50.0)
    assert calls, "no operations ran through the fetch chain"
    assert len(calls) == generator.operations_started
    assert all(len(pages) == 3 for _, pages, _, _ in calls)
    assert all(class_id == 1 for _, _, class_id, _ in calls)
    assert all(owner is generator for _, _, _, owner in calls)
    assert 0 < generator.operations_completed <= len(calls)
