"""Unit tests for the multiclass MVA solvers."""

import pytest

from repro.analytic.mva import (
    EXACT_LIMIT,
    DELAY,
    ClosedNetwork,
    Station,
    exact_mva,
    schweitzer_mva,
    solve,
)

from tests.mva_reference import machine_repairman


def single_class_network(population=5, demand=2.0, think=50.0):
    return ClosedNetwork(
        stations=(Station("s0"),),
        class_names=("only",),
        demands=((demand,),),
        population=(population,),
        think_ms=(think,),
    )


# -- construction and validation --------------------------------------


def test_station_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Station("x", kind="multiserver")


def test_network_validates_shapes():
    with pytest.raises(ValueError):
        ClosedNetwork(stations=(), class_names=("a",),
                      demands=((),), population=(1,))
    with pytest.raises(ValueError):
        ClosedNetwork(stations=(Station("s"),), class_names=(),
                      demands=(), population=())
    with pytest.raises(ValueError):  # demand row length mismatch
        ClosedNetwork(stations=(Station("s"),), class_names=("a",),
                      demands=((1.0, 2.0),), population=(1,))
    with pytest.raises(ValueError):  # negative demand
        ClosedNetwork(stations=(Station("s"),), class_names=("a",),
                      demands=((-1.0,),), population=(1,))
    with pytest.raises(ValueError):  # population length mismatch
        ClosedNetwork(stations=(Station("s"),), class_names=("a",),
                      demands=((1.0,),), population=(1, 2))
    with pytest.raises(ValueError):  # think length mismatch
        ClosedNetwork(stations=(Station("s"),), class_names=("a",),
                      demands=((1.0,),), population=(1,),
                      think_ms=(1.0, 2.0))


def test_state_space_is_population_product():
    net = ClosedNetwork(
        stations=(Station("s"),), class_names=("a", "b"),
        demands=((1.0,), (1.0,)), population=(3, 4),
    )
    assert net.state_space() == 4 * 5


# -- exact MVA --------------------------------------------------------


def test_exact_single_customer_has_no_queueing():
    # One customer never queues behind itself: R = D exactly.
    net = single_class_network(population=1, demand=3.0, think=10.0)
    sol = exact_mva(net)
    assert sol.response_ms[0] == pytest.approx(3.0)
    assert sol.throughput_per_ms[0] == pytest.approx(1 / 13.0)


def test_exact_matches_machine_repairman_closed_form():
    # The M/M/1//N closed form is an independent derivation.
    for population, demand, think in (
        (1, 2.0, 40.0), (4, 1.5, 30.0), (12, 3.0, 20.0),
    ):
        net = single_class_network(population, demand, think)
        sol = exact_mva(net)
        response, throughput = machine_repairman(
            population, demand, think
        )
        assert sol.response_ms[0] == pytest.approx(response, rel=1e-9)
        assert sol.throughput_per_ms[0] == pytest.approx(
            throughput, rel=1e-9
        )


def test_exact_symmetric_classes_get_equal_responses():
    net = ClosedNetwork(
        stations=(Station("cpu"), Station("disk")),
        class_names=("a", "b"),
        demands=((1.0, 2.0), (1.0, 2.0)),
        population=(3, 3),
        think_ms=(25.0, 25.0),
    )
    sol = exact_mva(net)
    assert sol.response_ms[0] == pytest.approx(sol.response_ms[1])
    assert sol.throughput_per_ms[0] == pytest.approx(
        sol.throughput_per_ms[1]
    )


def test_exact_delay_station_adds_no_queueing():
    # A pure-delay network: response is the raw demand at any load.
    net = ClosedNetwork(
        stations=(Station("d", kind=DELAY),),
        class_names=("a",),
        demands=((4.0,),),
        population=(20,),
        think_ms=(1.0,),
    )
    sol = exact_mva(net)
    assert sol.response_ms[0] == pytest.approx(4.0)


def test_exact_utilization_is_throughput_times_demand():
    net = single_class_network(population=6, demand=2.0, think=30.0)
    sol = exact_mva(net)
    assert sol.utilization["s0"] == pytest.approx(
        sol.throughput_per_ms[0] * 2.0
    )
    assert list(sol.utilization) == ["s0"]
    assert 0.0 < sol.utilization["s0"] < 1.0


def test_exact_empty_class_is_ignored():
    net = ClosedNetwork(
        stations=(Station("s"),),
        class_names=("a", "empty"),
        demands=((2.0,), (5.0,)),
        population=(4, 0),
        think_ms=(30.0, 30.0),
    )
    sol = exact_mva(net)
    lone = single_class_network(4, 2.0, 30.0)
    assert sol.response_ms[0] == pytest.approx(
        exact_mva(lone).response_ms[0]
    )
    assert sol.throughput_per_ms[1] == 0.0


# -- Schweitzer -------------------------------------------------------


def test_schweitzer_exact_at_population_one():
    # Q - Q_c/1 removes the whole tagged class: exact at N=1.
    net = single_class_network(population=1, demand=2.5, think=20.0)
    assert schweitzer_mva(net).response_ms[0] == pytest.approx(
        exact_mva(net).response_ms[0], rel=1e-6
    )


def test_schweitzer_close_to_exact_mid_population():
    net = ClosedNetwork(
        stations=(Station("cpu"), Station("disk"), Station("net")),
        class_names=("a", "b"),
        demands=((0.5, 2.0, 0.3), (1.0, 1.0, 0.6)),
        population=(8, 6),
        think_ms=(40.0, 60.0),
    )
    exact = exact_mva(net)
    approx = schweitzer_mva(net)
    for c in range(2):
        rel = abs(approx.response_ms[c] - exact.response_ms[c])
        rel /= exact.response_ms[c]
        assert rel < 0.05


# -- solver selection -------------------------------------------------


def test_solve_auto_picks_by_state_space():
    small = single_class_network(population=5)
    assert solve(small, method="auto").method == "exact"
    big = single_class_network(population=EXACT_LIMIT + 5)
    assert solve(big, method="auto").method == "schweitzer"
    assert solve(small, method="schweitzer").method == "schweitzer"
    with pytest.raises(ValueError):
        solve(small, method="simulate")


def test_machine_repairman_validates():
    with pytest.raises(ValueError):
        machine_repairman(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        machine_repairman(3, 0.0, 1.0)
