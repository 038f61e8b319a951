"""Tests of the benchmark itself.  Run from the repository root with::

    python3 -m pytest perf/

Runs are shortened by passing a small interval count to ``measure`` /
``run_rep``; the command line has no such option.
"""

from __future__ import annotations

import json
import re

import pytest

import compare
from bench import (
    BENCHMARK_JSON,
    DEFAULT_SECONDS,
    declared_metrics,
    measure,
    result_line,
    run_rep,
)
from workloads import FIGURE2_GOAL_RANGE, WORKLOADS

from repro.cluster.config import SystemConfig
from repro.experiments.figure2 import run_figure2
from repro.experiments.runner import DEFAULT_WARMUP_MS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_figure2_workload_times_the_figure2_experiment():
    intervals = 16
    sim = WORKLOADS["figure2"].build(0)
    sim.run(intervals)
    data = run_figure2(
        seed=0, intervals=intervals, config=SystemConfig(),
        goal_range=FIGURE2_GOAL_RANGE, warmup_ms=DEFAULT_WARMUP_MS,
    )
    series = sim.controller.series[1]
    assert len(set(data.goal)) > 1, "the window must include a goal change"
    assert series.observed_rt.values == data.observed_rt
    assert series.goal.values == data.goal
    assert series.dedicated_bytes.values == data.dedicated_bytes
    assert series.satisfied == data.satisfied


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digest_equals_untraced(name):
    record = measure(name, seed=0, seconds=0, trace=True, intervals=2)
    assert record["repetitions"] == 2
    assert len(record["digests"]) == 1
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0


def test_same_seed_same_digest_other_seed_other_digest():
    workload = WORKLOADS["figure2"]
    first = run_rep(workload, 0, intervals=2)
    again = run_rep(workload, 0, intervals=2)
    other = run_rep(workload, 1, intervals=2)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    declared = declared_metrics()
    kind = "per_layer" if trace else "end_to_end"
    record = measure("figure2", seed=0, seconds=0, trace=trace, intervals=2)
    line = result_line(record, declared[kind])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {d["name"] for d in declared[kind]}
    for decl in declared[kind]:
        assert NAME.fullmatch(decl["name"])
        assert decl["unit"] and decl["better"] in ("lower", "higher")
        if kind == "end_to_end":
            assert 0 < decl["bound"] <= 0.25
            assert line["metrics"][decl["name"]]["value"] > 0


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perf/bench.py"]
    assert spec["paths"] == ["perf"]
    assert spec["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(d for d in spec["end_to_end"] if d["name"] == "setup_s")
    assert setup["bound"] == max(d["bound"] for d in spec["end_to_end"])


def _record(wall, digest="d", simulated=1.0):
    return {"workloads": {"w": {
        "samples": {"setup_s": [1.0, 1.0, 1.0], "wall_s": wall,
                    "accesses_per_s": [10.0, 10.0, 10.0],
                    "peak_rss_mb": [50.0]},
        "digests": [digest],
        "simulated": {"goal_met_frac": simulated},
        "correct": True,
    }}}


def test_compare_flags_regressions_and_simulation_changes():
    declared = declared_metrics()["end_to_end"]
    base = _record([10.0, 10.1, 9.9])
    assert compare.compare(base, _record([10.0, 10.2, 9.8]), declared)[1]
    assert not compare.compare(base, _record([20.0, 20.1, 19.9]),
                               declared)[1]
    assert not compare.compare(base, _record([10.0, 10.1, 9.9], digest="e"),
                               declared)[1]
    assert not compare.compare(
        base, _record([10.0, 10.1, 9.9], simulated=0.5), declared
    )[1]
    noisy = _record([5.0, 10.0, 20.0])
    rows, ok = compare.compare(noisy, _record([6.0, 12.0, 24.0]), declared)
    assert ok and "unresolved" in rows[0]
