"""Integration tests: analytic prescreening wired into the sweeps.

The load-bearing guarantee is *bit-identity*: prescreening only
chooses WHICH points simulate, never how they simulate, so a
prescreened sweep's points must be byte-for-byte equal to the same
goals run through an unscreened sweep.
"""

import json
import os

import pytest

from repro.experiments import multiclass
from repro.experiments.calibration import GoalRange
from repro.experiments.figure2 import run_goal_sweep
from repro.experiments.multiclass import doubled_cache_config

GOAL_RANGE = GoalRange(1, 2.0, 8.0)


@pytest.fixture
def screened(fast_config):
    return run_goal_sweep(
        seed=3, intervals=4, config=fast_config, goal_range=GOAL_RANGE,
        warmup_ms=4000.0, prescreen=40,
    )


def test_prescreen_simulates_only_the_frontier(screened):
    report = screened.prescreen
    assert report is not None
    assert report.grid_size == 40
    assert report.frontier_size <= 4  # 10% hard cap
    assert len(screened.points) == report.frontier_size
    assert [p.goal_ms for p in screened.points] == (
        report.selected_goals()
    )


def test_prescreened_points_are_bit_identical(fast_config, screened):
    # Re-run the selected goals as an ordinary (unscreened) sweep.
    plain = run_goal_sweep(
        goals=screened.prescreen.selected_goals(), seed=3, intervals=4,
        config=fast_config, goal_range=GOAL_RANGE, warmup_ms=4000.0,
    )
    assert plain.prescreen is None
    assert len(plain.points) == len(screened.points)
    for a, b in zip(screened.points, plain.points):
        assert a.goal_ms == b.goal_ms
        assert a.seed == b.seed
        assert a.observed_rt == b.observed_rt
        assert a.dedicated_bytes == b.dedicated_bytes
        assert a.satisfied == b.satisfied
        assert a.p95_rt_ms == b.p95_rt_ms


def test_prescreen_emits_trace_record(fast_config, tmp_path):
    outdir = str(tmp_path / "telemetry")
    data = run_goal_sweep(
        seed=3, intervals=4, config=fast_config, goal_range=GOAL_RANGE,
        warmup_ms=4000.0, prescreen=40, telemetry=outdir,
    )
    merged = os.path.join(outdir, "trace.jsonl")
    assert os.path.exists(merged)
    with open(merged, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    prescreens = [r for r in records if r["kind"] == "prescreen"]
    assert len(prescreens) == 1
    record = prescreens[0]
    assert record["point"] == "sweep"
    assert record["grid"] == 40
    assert record["frontier"] == data.prescreen.frontier_size
    assert record["solves"] > 0


def test_multiclass_prescreen_respects_goal_ordering(
    fast_config, monkeypatch
):
    monkeypatch.setattr(multiclass, "GOAL_SWEEP_TAIL", 2)
    config = doubled_cache_config(fast_config)
    sweep = multiclass.run_goal_sweep(
        goal_pairs=[(3.0, 8.0), (6.0, 14.0)], config=config, seed=3,
        intervals=3, warmup_ms=4000.0, prescreen=16,
    )
    report = sweep.prescreen
    assert report is not None
    assert report.grid_size == 16
    assert sweep.points
    for point in sweep.points:
        assert point.goal1_ms < point.goal2_ms
        assert (point.goal1_ms, point.goal2_ms) in (
            report.selected_pairs()
        )
