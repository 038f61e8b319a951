"""Tests for the warm-state fork server.

The headline guarantee mirrors ``--jobs``: the fork path never
changes results.  A sweep point forked off a warmed parent must be
bit-identical to the same point run cold from scratch, for any ``jobs``
fan-out, and the planner must fall back to cold whenever a sweep
cannot honour that guarantee.  The cold reference runs as it does on
a platform without ``os.fork``: with ``forkserver.supports_fork``
patched to return False.
"""

import functools
import json
import os

import pytest

from repro.core.controller import GoalOrientedController
from repro.experiments import forkserver
from repro.experiments.calibration import (
    GoalRange,
    calibrate_goal_range,
)
from repro.experiments.forkserver import (
    WarmDelta,
    WarmGroup,
    WarmupInvarianceError,
    apply_delta,
    plan_sweep,
    run_sweep,
    supports_fork,
    warm_fingerprint,
)
from repro.experiments.runner import (
    CALIBRATION_WARMUP_MS,
    DEFAULT_WARMUP_MS,
    RESILIENCE_WARMUP_MS,
    Simulation,
    default_workload,
)

requires_fork = pytest.mark.skipif(
    not supports_fork(), reason="platform has no os.fork"
)

#: A small calibrated range so sweeps skip the calibration runs.
GOAL_RANGE = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)


def _build_sim(fast_config, seed=3, goal_ms=4.0, warmup_ms=6_000.0):
    workload = default_workload(fast_config, goal_ms=goal_ms)
    return Simulation(
        config=fast_config, workload=workload, seed=seed,
        warmup_ms=warmup_ms,
    )


# -- planning ---------------------------------------------------------


@requires_fork
def test_plan_sweep_forks_only_shared_warm_keys():
    # Duplicated keys share warm state; all-distinct keys (e.g. one
    # seed per replicate) have nothing to amortize.
    assert plan_sweep(warm_keys=[7, 7, 7]) == "fork"
    assert plan_sweep(warm_keys=[7, 8, 9]) == "cold"


def test_plan_sweep_degrades_without_fork(monkeypatch):
    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    assert forkserver.plan_sweep(warm_keys=[1, 1]) == "cold"


# -- the runtime invariance guard -------------------------------------


def test_apply_delta_requires_warmed_inactive_sim(fast_config):
    sim = _build_sim(fast_config)
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))
    sim.start()
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


def test_apply_delta_sets_goals_without_perturbing_warm_state(
    fast_config,
):
    sim = _build_sim(fast_config)
    sim.warm()
    before = warm_fingerprint(sim)
    apply_delta(sim, WarmDelta.for_goals({1: 5.5}))
    assert sim.controller.goal_of(1) == 5.5
    assert warm_fingerprint(sim) == before


def _misbehaving_set_goal(monkeypatch, misbehave):
    """Make ``controller.set_goal`` also run ``misbehave(controller)``.

    A goal change that drew randomness or advanced the clock would
    break fork == cold, so the runtime guard must catch it — in process
    and in a forked child (which inherits the patch).
    """
    set_goal = GoalOrientedController.set_goal

    def patched(self, class_id, goal_ms):
        set_goal(self, class_id, goal_ms)
        misbehave(self)

    monkeypatch.setattr(GoalOrientedController, "set_goal", patched)


def _draw_rng(controller):
    controller.cluster.rng.random("page-select/goal")


def _advance_clock(controller):
    env = controller.cluster.env
    env.run(until=env.now + 1.0)


def test_runtime_guard_catches_rng_drawing_configure(
    fast_config, monkeypatch
):
    _misbehaving_set_goal(monkeypatch, _draw_rng)
    sim = _build_sim(fast_config)
    sim.warm()
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


def test_runtime_guard_catches_clock_advance(fast_config, monkeypatch):
    _misbehaving_set_goal(monkeypatch, _advance_clock)
    sim = _build_sim(fast_config)
    sim.warm()
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


# -- fork == cold bit-identity ----------------------------------------


def _cold(monkeypatch, sweep, **kwargs):
    """Run ``sweep`` on the cold path, as a platform without fork does."""
    with monkeypatch.context() as patch:
        patch.setattr(forkserver, "supports_fork", lambda: False)
        return sweep(**kwargs)


@requires_fork
def test_figure2_goal_sweep_fork_matches_cold(fast_config, monkeypatch):
    from repro.experiments.figure2 import run_goal_sweep

    kwargs = dict(
        points=3, seed=5, intervals=3, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(**kwargs)
    cold = _cold(monkeypatch, run_goal_sweep, **kwargs)
    assert fork.runner == "fork" and cold.runner == "cold"
    assert len(fork.points) == 3
    for f, c in zip(fork.points, cold.points):
        assert f.goal_ms == c.goal_ms
        assert f.seed == c.seed
        assert f.observed_rt == c.observed_rt
        assert f.dedicated_bytes == c.dedicated_bytes
        assert f.satisfied == c.satisfied


@requires_fork
def test_figure2_goal_sweep_jobs2_matches_jobs1(fast_config):
    from repro.experiments.figure2 import run_goal_sweep

    kwargs = dict(
        points=4, seed=5, intervals=3, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=6_000.0,
    )
    serial = run_goal_sweep(jobs=1, **kwargs)
    parallel = run_goal_sweep(jobs=2, **kwargs)
    assert serial.runner == parallel.runner == "fork"
    for a, b in zip(serial.points, parallel.points):
        assert a.goal_ms == b.goal_ms
        assert a.observed_rt == b.observed_rt
        assert a.dedicated_bytes == b.dedicated_bytes


@requires_fork
def test_figure2_goal_sweep_replicates_fork_per_seed(fast_config, monkeypatch):
    from repro.experiments.figure2 import run_goal_sweep

    from repro.experiments import figure2

    monkeypatch.setattr(figure2, "SWEEP_REPLICATES", 2)
    kwargs = dict(
        points=2, seed=5, intervals=3,
        config=fast_config, goal_range=GOAL_RANGE, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(**kwargs)
    cold = _cold(monkeypatch, run_goal_sweep, **kwargs)
    assert fork.runner == "fork" and cold.runner == "cold"
    assert [p.seed for p in fork.points] == [5, 5, 6, 6]
    for f, c in zip(fork.points, cold.points):
        assert (f.seed, f.goal_ms, f.observed_rt) == (
            c.seed, c.goal_ms, c.observed_rt
        )


@requires_fork
def test_multiclass_goal_sweep_fork_matches_cold(fast_config, monkeypatch):
    from repro.experiments import multiclass
    from repro.experiments.multiclass import run_goal_sweep

    monkeypatch.setattr(multiclass, "GOAL_SWEEP_TAIL", 2)
    kwargs = dict(
        goal_pairs=((3.0, 8.0), (4.0, 10.0)), config=fast_config,
        intervals=3, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(**kwargs)
    cold = _cold(monkeypatch, run_goal_sweep, **kwargs)
    assert fork.runner == "fork" and cold.runner == "cold"
    assert [p.to_row() for p in fork.points] == [
        p.to_row() for p in cold.points
    ]


@requires_fork
def test_resilience_goal_sweep_fork_matches_cold(fast_config, monkeypatch):
    from repro.experiments.resilience import run_goal_sweep

    kwargs = dict(
        goals=(4.0, 7.0), seed=0, intervals=10, config=fast_config,
        replications=2, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(**kwargs)
    cold = _cold(monkeypatch, run_goal_sweep, **kwargs)
    assert fork.runner == "fork" and cold.runner == "cold"
    assert fork.fault_spec == cold.fault_spec
    for df, dc in zip(fork.results, cold.results):
        assert df.goal_ms == dc.goal_ms
        assert df.replicates == dc.replicates


def test_auto_falls_back_cold_without_fork(fast_config, monkeypatch):
    from repro.experiments.figure2 import run_goal_sweep

    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    sweep = run_goal_sweep(
        points=2, seed=5, intervals=2, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=4_000.0,
    )
    assert sweep.runner == "cold"
    assert len(sweep.points) == 2


# -- the executor ---------------------------------------------------


def _goal_deltas(*labelled_goals):
    return [
        WarmDelta.for_goals({1: goal_ms}, label=label)
        for label, goal_ms in labelled_goals
    ]


@requires_fork
def test_run_sweep_merges_in_group_major_order(fast_config, tmp_path):
    # The singleton group runs cold and finishes before the forked
    # group even starts; results, point dirs and the merged manifest
    # must still follow the groups' declared point order.
    from repro.experiments.figure2 import _summarize_goal_point

    build = functools.partial(_build_sim, fast_config, warmup_ms=4_000.0)
    measure = functools.partial(_summarize_goal_point, intervals=1)
    outdir = str(tmp_path / "tel")
    record = {"kind": "note", "t": 0.0, "detail": 1}
    mode, results = run_sweep(
        [
            WarmGroup(build, _goal_deltas(("a0", 4.0), ("a1", 5.0)),
                      measure),
            WarmGroup(build, _goal_deltas(("b0", 6.0)), measure),
        ],
        jobs=2, telemetry=outdir, records=[record],
    )
    assert mode == "fork"
    assert [[p.goal_ms for p in group] for group in results] == [
        [4.0, 5.0], [6.0],
    ]
    with open(os.path.join(outdir, "points.json")) as fh:
        manifest = json.load(fh)
    assert [entry["label"] for entry in manifest] == ["a0", "a1", "b0"]
    assert all(entry["records"] > 0 for entry in manifest)
    with open(os.path.join(outdir, "trace.jsonl")) as fh:
        last = json.loads(fh.read().splitlines()[-1])
    assert last == dict(record, point="sweep")


# -- error propagation across the pipe --------------------------------


@requires_fork
def test_child_failure_reraises_in_parent(fast_config):
    def build():
        return _build_sim(fast_config)

    def explode(sim):
        raise KeyError("boom in the child")

    with pytest.raises(RuntimeError, match="boom in the child"):
        run_sweep(
            [WarmGroup(
                build,
                deltas=[WarmDelta.for_goals({1: g}) for g in (4.0, 5.0)],
                measure=explode,
            )],
        )


def _fork_two_goals(fast_config):
    run_sweep(
        [WarmGroup(
            lambda: _build_sim(fast_config),
            deltas=[WarmDelta.for_goals({1: g}) for g in (4.0, 5.0)],
            measure=lambda sim: None,
        )],
    )


@requires_fork
def test_child_invariance_violation_reraises_typed(
    fast_config, monkeypatch
):
    _misbehaving_set_goal(monkeypatch, _draw_rng)
    with pytest.raises(WarmupInvarianceError):
        _fork_two_goals(fast_config)


@requires_fork
def test_vet_cache_does_not_weaken_runtime_clock_guard(
    fast_config, monkeypatch
):
    # (The name predates the removal of static vetting.)  With no
    # static check left, the runtime guard alone must catch a goal
    # change that advances the clock inside a forked child.
    _misbehaving_set_goal(monkeypatch, _advance_clock)
    with pytest.raises(WarmupInvarianceError):
        _fork_two_goals(fast_config)


# -- sweeps that can never fork run cold ----------------------------


def test_sharing_sweep_runs_cold(fast_config, monkeypatch):
    # Every sharing fraction is its own warm group: nothing to fork.
    from repro.experiments import multiclass
    from repro.experiments.multiclass import run_sharing_sweep

    def no_fork(*args):
        raise AssertionError("the sharing sweep forked")

    monkeypatch.setattr(forkserver, "_fork_group", no_fork)
    monkeypatch.setattr(multiclass, "SHARING_CONFIG", fast_config)
    result = run_sharing_sweep(
        sharings=(0.0, 0.5), intervals=2, tail=1, warmup_ms=2_000.0,
    )
    assert [p.sharing for p in result.points] == [0.0, 0.5]


# -- the shared warm-up constants -------------------------------------


def test_warmup_constants_pin_historical_values():
    assert DEFAULT_WARMUP_MS == 20_000.0
    assert CALIBRATION_WARMUP_MS == 60_000.0
    assert RESILIENCE_WARMUP_MS == 10_000.0


def test_calibration_defaults_use_shared_constant():
    import inspect

    from repro.experiments.calibration import measure_static_rt

    for fn in (measure_static_rt, calibrate_goal_range):
        default = inspect.signature(fn).parameters["warmup_ms"].default
        assert default == CALIBRATION_WARMUP_MS


def test_calibrate_goal_range_respects_passed_warmup(
    fast_config, monkeypatch
):
    # Regression: the anchors must inherit the caller's warmup_ms, not
    # a hard-coded literal.
    seen = []

    def fake_measure(workload, class_id, fraction, config, seed,
                     warmup_ms, measure_ms):
        seen.append(warmup_ms)
        return 3.0 if fraction > 0.5 else 9.0

    from repro.experiments import calibration

    monkeypatch.setattr(calibration, "measure_static_rt", fake_measure)
    workload = default_workload(fast_config)
    result = calibrate_goal_range(
        workload, class_id=1, config=fast_config, warmup_ms=1_234.0
    )
    assert seen == [1_234.0, 1_234.0]
    assert (result.goal_min_ms, result.goal_max_ms) == (3.0, 9.0)
