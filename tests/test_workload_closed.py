"""Unit tests for the closed-loop client driver."""

import pytest

from repro.cluster.cluster import Cluster
from repro.workload.closed import ClosedLoopDriver
from repro.workload.spec import ClassSpec


def make_spec(pages_per_op=2):
    return ClassSpec(
        class_id=1, goal_ms=5.0, pages=tuple(range(50)),
        pages_per_op=pages_per_op, arrival_rate_per_node=0.01,
    )


class CountSink:
    def __init__(self):
        self.arrivals = 0
        self.completions = 0
        self.response_times = []

    def on_arrival(self, node_id, class_id, now):
        self.arrivals += 1

    def on_complete(self, node_id, class_id, response_ms, now):
        self.completions += 1
        self.response_times.append(response_ms)


def test_parameters_validated(fast_config):
    cluster = Cluster(fast_config, seed=0)
    with pytest.raises(ValueError):
        ClosedLoopDriver(cluster, make_spec(), 0, 100.0)
    with pytest.raises(ValueError):
        ClosedLoopDriver(cluster, make_spec(), 1, 0.0)


def test_clients_complete_operations(fast_config):
    cluster = Cluster(fast_config, seed=1)
    sink = CountSink()
    driver = ClosedLoopDriver(
        cluster, make_spec(), clients_per_node=2,
        think_time_ms=50.0, sink=sink,
    )
    driver.start()
    cluster.env.run(until=20_000.0)
    assert driver.operations_completed > 0
    assert sink.completions == driver.operations_completed
    assert all(rt > 0 for rt in sink.response_times)


def test_in_flight_bounded_by_population(fast_config):
    cluster = Cluster(fast_config, seed=1)
    population = 3 * fast_config.num_nodes
    driver = ClosedLoopDriver(
        cluster, make_spec(), clients_per_node=3, think_time_ms=10.0
    )
    driver.start()
    seen = set()
    for tick in range(1, 401):
        cluster.env.run(until=tick * 0.5)
        assert 0 <= driver.in_flight <= population
        seen.add(driver.in_flight)
    assert max(seen) > 0


def test_throughput_self_regulates(fast_config):
    """More clients raise throughput sublinearly once the system is
    loaded — the closed-loop signature."""

    def run(clients):
        cluster = Cluster(fast_config, seed=2)
        driver = ClosedLoopDriver(
            cluster, make_spec(pages_per_op=4),
            clients_per_node=clients, think_time_ms=5.0,
        )
        driver.start()
        cluster.env.run(until=30_000.0)
        return driver.throughput()

    t1 = run(1)
    t8 = run(8)
    assert t8 > t1            # more clients, more throughput...
    assert t8 < 8 * t1        # ...but sublinear under contention


def test_deterministic(fast_config):
    def run(seed):
        cluster = Cluster(fast_config, seed=seed)
        driver = ClosedLoopDriver(
            cluster, make_spec(), clients_per_node=2,
            think_time_ms=20.0,
        )
        driver.start()
        cluster.env.run(until=10_000.0)
        return driver.operations_completed

    assert run(7) == run(7)
