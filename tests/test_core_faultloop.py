"""Tests for the failure-aware parts of the feedback loop.

Covers measure point invalidation after topology events, the
coordinator's tolerance of degenerate report sets (idle classes in a
fault window), and the ack/timeout/one-retry allocation protocol whose
unresolved conflicts fold into the next interval (§5).
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.agent import AgentReport
from repro.core.controller import GoalOrientedController
from repro.core.coordinator import Coordinator, CoordinatorDecision
from repro.core.measure import MeasureWindow
from repro.experiments.runner import Simulation

PAGE = 4096


def _report(node_id, completions=5, rate=0.01, rt=10.0, time=100.0):
    return AgentReport(
        node_id=node_id, class_id=1, arrivals=completions,
        completions=completions, mean_response_ms=rt,
        arrival_rate=rate, time=time,
    )


# -- measure point invalidation ----------------------------------------


def test_invalidate_before_drops_only_older_points():
    window = MeasureWindow(num_nodes=2)
    window.observe([PAGE, PAGE], 10.0, 1.0, time=100.0)
    window.observe([2 * PAGE, PAGE], 9.0, 1.0, time=200.0)
    window.observe([2 * PAGE, 2 * PAGE], 8.0, 1.0, time=300.0)
    assert window.invalidate_before(250.0) == 2
    assert len(window) == 1
    assert window.newest.time == 300.0
    assert window.invalidate_before(250.0) == 0


def test_coordinator_restart_forgets_precrash_state():
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    coordinator.window.observe([PAGE] * 3, 10.0, 1.0, time=100.0)
    coordinator.window.observe([2 * PAGE, PAGE, PAGE], 9.0, 1.0, time=200.0)
    coordinator.receive_goal_report(_report(0))
    coordinator.receive_goal_report(_report(1))
    coordinator.receive_nogoal_report(_report(0))
    coordinator.receive_hit_info(0, 5, 5)

    coordinator.on_node_restart(0, now=250.0)

    assert coordinator.invalidated_points == 2
    assert coordinator.restarts_seen == 1
    assert 0 not in coordinator.goal_reports
    assert 1 in coordinator.goal_reports  # other nodes keep reporting
    assert 0 not in coordinator.nogoal_reports
    assert 0 not in coordinator.hit_info
    assert len(coordinator.window) == 0


# -- degenerate report sets (satellite: idle class in fault window) ----


def test_evaluate_with_zero_rate_completions_returns_none():
    # Completions exist but every retained report saw zero arrivals
    # (the operations arrived in an earlier interval): eq. 4 would
    # degenerate to an observed RT of 0.0 and trigger a bogus
    # below-goal repartitioning.  The coordinator must skip instead.
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    coordinator.receive_goal_report(_report(0, completions=3, rate=0.0))
    coordinator.receive_goal_report(_report(2, completions=1, rate=0.0))
    decision = coordinator.evaluate(100.0, [0, 0, 0])
    assert decision.observed_rt is None
    assert decision.satisfied
    assert decision.new_allocation is None


def test_evaluate_with_no_reports_at_all_is_satisfied():
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    decision = coordinator.evaluate(100.0, [0, 0, 0])
    assert decision.observed_rt is None
    assert decision.satisfied


def test_one_live_report_is_enough_to_evaluate():
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    coordinator.receive_goal_report(_report(0, rate=0.0))
    coordinator.receive_goal_report(_report(1, rate=0.02, rt=12.0))
    decision = coordinator.evaluate(100.0, [0, 0, 0])
    assert decision.observed_rt == pytest.approx(12.0)


# -- ack/timeout/one-retry allocation shipping -------------------------


def _controller(fast_config):
    cluster = Cluster(fast_config, seed=0)
    controller = GoalOrientedController(cluster, {1: 5.0})
    return cluster, controller, controller.coordinators[1]


def _script_network(network, outcomes):
    """Replace send_control with a scripted drop sequence."""
    outcomes = iter(outcomes)

    def send_control(kind, page_size=0):
        return next(outcomes)

    network.send_control = send_control


def _decision(nbytes):
    return CoordinatorDecision(
        observed_rt=10.0, observed_nogoal_rt=None, satisfied=False,
        new_allocation=np.array([float(nbytes)] * 3),
    )


def test_apply_clean_delivery_updates_belief_everywhere(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    _script_network(cluster.network, [True] * 4)  # 2 remote exchanges
    controller._apply(1, coordinator, _decision(8 * PAGE))
    assert cluster.dedicated_bytes(1) == [8 * PAGE] * 3
    assert list(coordinator.current_allocation) == [8 * PAGE] * 3
    assert controller.allocation_retries == 0
    assert controller.allocation_unconfirmed == 0


def test_apply_lost_exchange_keeps_old_allocation(fast_config):
    # Node 0 (remote; coordinator home is node 1): ALLOCATION lost,
    # retry lost -> the node never applies, the coordinator keeps its
    # previous belief, and the conflict folds into the next interval.
    cluster, controller, coordinator = _controller(fast_config)
    _script_network(
        cluster.network,
        [False, False,  # node 0: both copies lost
         True, True],   # node 2: delivered + acked
    )
    controller._apply(1, coordinator, _decision(8 * PAGE))
    assert cluster.dedicated_bytes(1) == [0, 8 * PAGE, 8 * PAGE]
    assert list(coordinator.current_allocation) == [0, 8 * PAGE, 8 * PAGE]
    assert controller.allocation_retries == 1
    assert controller.allocation_unconfirmed == 1


def test_apply_lost_ack_retries_and_confirms(fast_config):
    # Node 0: delivered, ack lost, retry delivered + acked.
    cluster, controller, coordinator = _controller(fast_config)
    _script_network(
        cluster.network,
        [True, False, True, True,  # node 0: ack lost, retry confirms
         True, True],              # node 2
    )
    controller._apply(1, coordinator, _decision(8 * PAGE))
    assert cluster.dedicated_bytes(1) == [8 * PAGE] * 3
    assert list(coordinator.current_allocation) == [8 * PAGE] * 3
    assert controller.allocation_retries == 1
    assert controller.allocation_unconfirmed == 0


def test_apply_unconfirmed_exchange_diverges_belief(fast_config):
    # Node 0 applies the first copy but the coordinator never hears an
    # ack: the node holds the new size while the coordinator keeps its
    # old belief -- the discrepancy is visible until the next interval
    # re-measures.
    cluster, controller, coordinator = _controller(fast_config)
    _script_network(
        cluster.network,
        [True, False, False,  # node 0: applied, ack lost, retry lost
         True, True],         # node 2
    )
    controller._apply(1, coordinator, _decision(8 * PAGE))
    assert cluster.dedicated_bytes(1) == [8 * PAGE] * 3
    assert coordinator.current_allocation[0] == 0.0
    assert coordinator.current_allocation[2] == 8 * PAGE
    assert controller.allocation_unconfirmed == 1


def test_apply_without_change_ships_nothing(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._apply(1, coordinator, _decision(8 * PAGE))

    def explode(kind, page_size=0):  # pragma: no cover - must not run
        raise AssertionError("no exchange expected for unchanged sizes")

    cluster.network.send_control = explode
    controller._apply(1, coordinator, _decision(8 * PAGE))
    assert cluster.dedicated_bytes(1) == [8 * PAGE] * 3


# -- controller-level restart plumbing ---------------------------------


def test_controller_rebases_hit_counts_on_restart(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._hit_counts[(1, 0)] = (40, 10)
    controller._hit_counts[(1, 1)] = (7, 3)
    cluster.restart_node(0)
    assert controller.restarts_observed == 1
    assert controller._hit_counts[(1, 0)] == (0, 0)
    assert controller._hit_counts[(1, 1)] == (7, 3)
    assert coordinator.restarts_seen == 1


# -- integration: total report loss still evaluates --------------------


def test_loop_survives_total_report_loss(fast_config, fast_workload):
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=0,
        faults="netloss@0:dur=100000000:p=1",
    )
    sim.run(intervals=6)
    controller = sim.controller
    assert controller.reports_dropped > 0
    # Only the coordinator's home node can deliver reports; the
    # coordinator still evaluates every interval with what it has.
    home = controller.coordinator_home[1]
    assert set(controller.coordinators[1].goal_reports) <= {home}
    assert len(list(controller.coordinators[1].decision_log)) == 6
