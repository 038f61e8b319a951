"""Property tests pinning the MVA solvers against independent theory.

Two anchors, per the analytic-fast-path acceptance criteria:

* exact MVA must reproduce the machine-repairman (M/M/1//N) closed
  form — an independent derivation via the product-form solution — on
  any single-class single-station network;
* Schweitzer/Bard must satisfy the exact queueing-law invariants on
  any topology, and stay within 5% of exact MVA at moderate
  (≤0.7) bottleneck utilization on bridge-shaped networks — its
  accuracy is regime-dependent, degrading to ~25% at saturation,
  which the bridge's saturation guard keeps out of reach.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.analytic.mva import (
    DELAY,
    QUEUE,
    ClosedNetwork,
    Station,
    exact_mva,
    schweitzer_mva,
)

from tests.mva_reference import machine_repairman

#: Service demands and think times drawn over two orders of magnitude
#: so both near-idle and contended stations appear.
demand_st = st.floats(min_value=0.1, max_value=10.0)
think_st = st.floats(min_value=5.0, max_value=500.0)


@settings(max_examples=60, deadline=None)
@given(
    population=st.integers(min_value=1, max_value=25),
    demand=demand_st,
    think=think_st,
)
def test_exact_mva_matches_machine_repairman(population, demand, think):
    net = ClosedNetwork(
        stations=(Station("s"),),
        class_names=("only",),
        demands=((demand,),),
        population=(population,),
        think_ms=(think,),
    )
    sol = exact_mva(net)
    response, throughput = machine_repairman(population, demand, think)
    # The closed form computes R = N/X - Z, which cancels
    # catastrophically when D << Z; scale the floor accordingly.
    assert sol.response_ms[0] == pytest.approx(
        response, rel=1e-9, abs=1e-11 * (response + think)
    )
    assert sol.throughput_per_ms[0] == pytest.approx(
        throughput, rel=1e-9
    )
    # Sanity bounds any closed network obeys: R >= D, X <= 1/D,
    # N = X * (R + Z) (Little's law).
    assert sol.response_ms[0] >= demand - 1e-12
    assert sol.throughput_per_ms[0] <= 1.0 / demand + 1e-12
    assert sol.throughput_per_ms[0] * (
        sol.response_ms[0] + think
    ) == pytest.approx(population, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    num_stations=st.integers(min_value=1, max_value=4),
    num_classes=st.integers(min_value=1, max_value=3),
)
def test_schweitzer_solutions_obey_queueing_laws(
    data, num_stations, num_classes
):
    # Accuracy is regime-dependent (see the grid test below), but the
    # fixed point must satisfy the exact-theorem invariants on ANY
    # topology: no class responds faster than its raw demand, and
    # Little's law closes every class's cycle.
    stations = tuple(
        Station(
            f"s{i}",
            kind=data.draw(
                st.sampled_from([QUEUE, QUEUE, DELAY]), label=f"kind{i}"
            ),
        )
        for i in range(num_stations)
    )
    demands = tuple(
        tuple(
            data.draw(demand_st, label=f"d{c},{s}")
            for s in range(num_stations)
        )
        for c in range(num_classes)
    )
    population = tuple(
        data.draw(
            st.integers(min_value=1, max_value=6), label=f"n{c}"
        )
        for c in range(num_classes)
    )
    think = tuple(
        data.draw(think_st, label=f"z{c}") for c in range(num_classes)
    )
    net = ClosedNetwork(
        stations=stations,
        class_names=tuple(f"c{c}" for c in range(num_classes)),
        demands=demands,
        population=population,
        think_ms=think,
    )
    approx = schweitzer_mva(net)
    for c in range(num_classes):
        total_demand = sum(demands[c])
        assert approx.response_ms[c] >= total_demand - 1e-9
        assert approx.throughput_per_ms[c] * (
            approx.response_ms[c] + think[c]
        ) == pytest.approx(population[c], rel=1e-6)


def _bridge_shaped_network(classes, stations, pop, asymmetry):
    """Balanced-population network with think = 64x demand, as the
    bridge's slack factor produces (`repro.analytic.bridge`)."""
    demands = tuple(
        tuple(
            (1.0 + (asymmetry - 1.0) * c / max(1, classes - 1))
            * (0.5 + 0.5 * s)
            for s in range(stations)
        )
        for c in range(classes)
    )
    return ClosedNetwork(
        stations=tuple(Station(f"s{i}") for i in range(stations)),
        class_names=tuple(f"c{c}" for c in range(classes)),
        demands=demands,
        population=(pop,) * classes,
        think_ms=tuple(64.0 * sum(d) for d in demands),
    )


def test_schweitzer_accuracy_tracks_utilization():
    # The empirical accuracy contract the prescreen relies on, swept
    # over bridge-shaped networks from idle to saturation: within 5%
    # of exact below 0.7 bottleneck utilization (observed worst ~3%),
    # degrading to ~25% only as the bottleneck saturates — which the
    # bridge's open-system saturation guard rejects before solving.
    checked_moderate = 0
    for classes in (1, 2, 3):
        for stations in (1, 2, 3):
            for pop in (4, 8, 16, 32, 48):
                for asymmetry in (1.0, 4.0):
                    net = _bridge_shaped_network(
                        classes, stations, pop, asymmetry
                    )
                    exact = exact_mva(net)
                    approx = schweitzer_mva(net)
                    util = max(exact.utilization.values())
                    worst = max(
                        abs(approx.response_ms[c] - exact.response_ms[c])
                        / exact.response_ms[c]
                        for c in range(classes)
                    )
                    if util <= 0.7:
                        checked_moderate += 1
                        assert worst <= 0.05, (
                            f"{classes}x{stations} pop={pop} "
                            f"util={util:.2f}: {worst:.1%}"
                        )
                    else:
                        assert worst <= 0.25, (
                            f"{classes}x{stations} pop={pop} "
                            f"util={util:.2f}: {worst:.1%}"
                        )
    assert checked_moderate >= 50  # the 5% claim is actually exercised


@settings(max_examples=30, deadline=None)
@given(
    population=st.integers(min_value=1, max_value=15),
    demand=demand_st,
    think=think_st,
    extra=st.integers(min_value=1, max_value=10),
)
def test_exact_response_monotone_in_population(
    population, demand, think, extra
):
    # More customers can only slow each other down.
    def response(n):
        net = ClosedNetwork(
            stations=(Station("s"),),
            class_names=("only",),
            demands=((demand,),),
            population=(n,),
            think_ms=(think,),
        )
        return exact_mva(net).response_ms[0]

    assert response(population + extra) >= response(population) - 1e-9
