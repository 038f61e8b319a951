"""Tests for the control-plane fault domain.

Covers the coordinator crash/restart protocol (state wipe, epoch bump,
re-learned allocations), the dead-epoch rejection of deferred
ALLOCATIONs, the degraded-mode state machine with hysteresis, the
anti-entropy directory reconciliation, and the end-to-end feedback-loop
behaviour under ``coordcrash`` and ``partition`` faults.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.directory import DirectoryInvariantError, PageDirectory
from repro.core.agent import AgentReport
from repro.core.controller import GoalOrientedController
from repro.core.coordinator import Coordinator, CoordinatorDecision
from repro.experiments.runner import Simulation

PAGE = 4096


def _report(node_id, completions=5, rate=0.01, rt=10.0, time=100.0):
    return AgentReport(
        node_id=node_id, class_id=1, arrivals=completions,
        completions=completions, mean_response_ms=rt,
        arrival_rate=rate, time=time,
    )


def _controller(fast_config):
    cluster = Cluster(fast_config, seed=0)
    controller = GoalOrientedController(cluster, {1: 5.0})
    return cluster, controller, controller.coordinators[1]


# -- coordinator crash / restart (unit) --------------------------------


def test_coordinator_crash_wipes_state_and_restart_bumps_epoch():
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    coordinator.window.observe([PAGE] * 3, 10.0, 1.0, time=100.0)
    coordinator.window.observe(
        [2 * PAGE, PAGE, PAGE], 9.0, 1.0, time=200.0
    )
    coordinator.receive_goal_report(_report(0))
    coordinator.receive_nogoal_report(_report(0))
    coordinator.receive_hit_info(0, 5, 5)
    assert coordinator.epoch == 0

    coordinator.on_coordinator_crash(now=250.0)
    assert len(coordinator.window) == 0
    assert coordinator.invalidated_points == 2
    assert coordinator.goal_reports == {}
    assert coordinator.nogoal_reports == {}
    assert coordinator.hit_info == {}
    assert coordinator.crashes == 1
    assert coordinator.epoch == 0  # the epoch bumps at restart

    coordinator.on_coordinator_restart(
        now=300.0, granted=[3 * PAGE, PAGE, 0]
    )
    assert coordinator.epoch == 1
    assert list(coordinator.current_allocation) == [3 * PAGE, PAGE, 0]


def test_record_outage_keeps_decision_log_interval_aligned():
    coordinator = Coordinator(
        class_id=1, node_sizes=[64 * PAGE] * 3, goal_ms=5.0
    )
    decision = coordinator.record_outage(now=100.0)
    assert decision.observed_rt is None
    assert not decision.satisfied
    [record] = list(coordinator.decision_log)
    assert record.mechanism == "coord_down"
    assert record.time == 100.0


# -- deferred delivery and the epoch gate ------------------------------


def _decision(nbytes):
    return CoordinatorDecision(
        observed_rt=10.0, observed_nogoal_rt=None, satisfied=False,
        new_allocation=np.array([float(nbytes)] * 3),
    )


def test_apply_defers_to_partitioned_node(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._apply(1, coordinator, _decision(8 * PAGE),
                      cut=frozenset({0}))
    # Node 0 got nothing; the others applied.
    assert cluster.dedicated_bytes(1) == [0, 8 * PAGE, 8 * PAGE]
    assert controller._pending == {0: {1: (0, 8 * PAGE)}}
    assert controller.allocations_deferred == 1
    # The coordinator keeps its previous belief for the deferred node.
    assert coordinator.current_allocation[0] == 0.0


def test_drain_pending_applies_current_epoch(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._apply(1, coordinator, _decision(8 * PAGE),
                      cut=frozenset({0}))
    controller._drain_pending(0, now=100.0)
    assert cluster.dedicated_bytes(1) == [8 * PAGE] * 3
    assert coordinator.current_allocation[0] == 8 * PAGE
    assert controller._pending == {}
    assert controller.stale_allocations_rejected == 0


def test_drain_pending_rejects_dead_epoch(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._apply(1, coordinator, _decision(8 * PAGE),
                      cut=frozenset({0}))
    # The coordinator crashes and restarts while node 0 is cut: the
    # queued ALLOCATION was computed under epoch 0, which is now dead.
    coordinator.on_coordinator_crash(now=50.0)
    coordinator.on_coordinator_restart(
        now=60.0, granted=cluster.dedicated_bytes(1)
    )
    controller._drain_pending(0, now=100.0)
    assert controller.stale_allocations_rejected == 1
    assert cluster.dedicated_bytes(1)[0] == 0  # never applied
    assert controller._pending == {}


def test_fresh_ship_supersedes_queued_allocation(fast_config):
    cluster, controller, coordinator = _controller(fast_config)
    controller._apply(1, coordinator, _decision(8 * PAGE),
                      cut=frozenset({0}))
    assert controller._pending[0][1] == (0, 8 * PAGE)
    # The node re-syncs and the next interval ships a newer size
    # directly: the stale queue entry must not survive to overwrite it.
    controller._apply(1, coordinator, _decision(4 * PAGE))
    assert controller._pending == {}
    assert cluster.dedicated_bytes(1) == [4 * PAGE] * 3


# -- degraded-mode state machine ---------------------------------------


class _FakeFaults:
    """Scriptable control-plane fault state for tick-level tests."""

    def __init__(self):
        self.coord_crashes = 0
        self.down_until = 0.0
        self.cut = ()

    def coordinator_down(self, now):
        return now < self.down_until

    def partitioned_nodes(self, now):
        return tuple(self.cut)


def test_degraded_enter_after_threshold_and_hysteresis_rejoin(fast_config):
    cluster, controller, _ = _controller(fast_config)
    faults = _FakeFaults()
    cluster.faults = faults
    faults.cut = (1,)
    for tick in range(3):
        controller._control_fault_tick(now=float(tick))
    assert controller.degraded[1]
    assert controller.degraded_entries == 1
    # One interval of contact is not enough to rejoin...
    faults.cut = ()
    controller._control_fault_tick(now=3.0)
    assert controller.degraded[1]
    # ...a second consecutive one is.
    controller._control_fault_tick(now=4.0)
    assert not controller.degraded[1]
    assert controller.degraded_exits == 1


def test_contact_interruption_resets_rejoin_streak(fast_config):
    cluster, controller, _ = _controller(fast_config)
    faults = _FakeFaults()
    cluster.faults = faults
    faults.cut = (0,)
    for tick in range(3):
        controller._control_fault_tick(now=float(tick))
    assert controller.degraded[0]
    faults.cut = ()
    controller._control_fault_tick(now=3.0)  # streak 1
    faults.cut = (0,)
    controller._control_fault_tick(now=4.0)  # interrupted
    faults.cut = ()
    controller._control_fault_tick(now=5.0)  # streak 1 again
    assert controller.degraded[0]
    controller._control_fault_tick(now=6.0)  # streak 2: rejoin
    assert not controller.degraded[0]


def test_subinterval_coordinator_crash_still_wipes_once(fast_config):
    # An outage shorter than one observation interval: by the time the
    # controller polls, the coordinator is already back up.  The crash
    # counter edge still wipes state (it died!) and recovers in the
    # same tick.
    cluster, controller, coordinator = _controller(fast_config)
    faults = _FakeFaults()
    cluster.faults = faults
    coordinator.window.observe([PAGE] * 3, 10.0, 1.0, time=1.0)
    faults.coord_crashes = 1
    faults.down_until = 5.0  # already expired at the next tick
    coord_down, _ = controller._control_fault_tick(now=10.0)
    assert not coord_down
    assert controller.coordinator_crashes == 1
    assert coordinator.invalidated_points == 1
    assert coordinator.epoch == 1


# -- directory audit / reconcile ---------------------------------------


def _fill(cluster, pages=range(0, 12)):
    def reader():
        for page in pages:
            yield from cluster.access_page(0, page, 0)
    cluster.env.process(reader())
    cluster.env.run()


def test_audit_clean_on_live_cluster(fast_config):
    cluster = Cluster(fast_config, seed=0)
    _fill(cluster)
    assert cluster.directory.audit(cluster.pool_contents()) == []


def test_audit_detects_divergence_and_reconcile_repairs(fast_config):
    cluster = Cluster(fast_config, seed=0)
    _fill(cluster)
    directory = cluster.directory
    # Corrupt the directory behind the cluster's back: claim a page
    # nobody holds and forget one that is really cached.
    held = sorted(cluster.pool_contents())[0]
    directory.register(399, 2)
    directory.unregister(held, 0)
    actual = cluster.pool_contents()
    problems = directory.audit(actual)
    assert problems
    repaired = directory.reconcile(actual)
    assert repaired == 2
    assert directory.audit(actual) == []
    assert directory.state() == {
        page: (len(holders), min(holders), tuple(sorted(holders)))
        for page, holders in actual.items() if holders
    }


def test_reconcile_is_idempotent_and_counts_zero_when_clean(fast_config):
    cluster = Cluster(fast_config, seed=0)
    _fill(cluster)
    assert cluster.reconcile_directory("test") == 0
    assert cluster.reconciles == 1
    assert cluster.reconcile_repairs == 0


def test_reconcile_directory_raises_on_unrepairable_state(fast_config):
    cluster = Cluster(fast_config, seed=0)
    _fill(cluster)

    class BrokenDirectory(PageDirectory):
        """A directory whose audit never comes back clean."""

        __slots__ = ()

        def audit(self, actual):
            return ["synthetic inconsistency"]

    cluster.directory = BrokenDirectory()
    with pytest.raises(DirectoryInvariantError):
        cluster.reconcile_directory("test")


# -- end-to-end feedback loop under control-plane faults ---------------


def test_coordcrash_bumps_epoch_and_keeps_log_aligned(
    fast_config, fast_workload
):
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=0,
        warmup_ms=4000.0, faults="coordcrash@9000:dur=4000",
    )
    sim.run(intervals=10)
    controller = sim.controller
    coordinator = controller.coordinators[1]
    assert controller.coordinator_crashes == 1
    assert coordinator.epoch == 1
    # One record per interval, outages included.
    records = list(coordinator.decision_log)
    assert len(records) == 10
    outage = [r for r in records if r.mechanism == "coord_down"]
    assert len(outage) == 2
    # The adopted allocation matches what the cluster really granted.
    assert [float(b) for b in coordinator.current_allocation] == [
        float(b) for b in sim.cluster.dedicated_bytes(1)
    ]
    assert sim.cluster.reconciles >= 1


def test_partition_defers_and_delivers_or_rejects(
    fast_config, fast_workload
):
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=0,
        warmup_ms=4000.0,
        faults="partition@7000:nodes=0:dur=8000",
    )
    sim.run(intervals=12)
    controller = sim.controller
    assert controller.reports_unreachable > 0
    assert controller.degraded_entries >= 1
    assert controller.degraded_exits == controller.degraded_entries
    assert not controller._pending  # everything drained after the heal
    assert not any(controller.degraded)


def test_no_fault_layer_skips_control_plane_entirely(
    fast_config, fast_workload
):
    sim = Simulation(
        config=fast_config, workload=fast_workload, seed=0,
        warmup_ms=4000.0,
    )
    sim.run(intervals=4)
    controller = sim.controller
    assert sim.cluster.faults is None
    assert controller.coordinator_crashes == 0
    assert controller.reports_unreachable == 0
    assert controller.allocations_deferred == 0
    assert controller.coordinators[1].epoch == 0
