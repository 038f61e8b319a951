"""End-to-end telemetry tests: exports, determinism, zero overhead.

The non-negotiable invariants of the telemetry layer:

- artifacts (JSONL trace, Prometheus text, Chrome/Perfetto timeline)
  are produced and parse for a short instrumented run;
- telemetry never touches RNG streams or event ordering — the golden
  workload trace is bit-identical with telemetry enabled;
- the fork-server and cold sweep paths produce identical results *and*
  byte-identical telemetry trees, for any ``jobs`` value.
"""

import json
import os

import pytest

from repro.telemetry.exporters import (
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
    TIMELINE_FILE,
    TRACE_FILE,
)
from repro.experiments import forkserver
from repro.experiments.figure2 import run_figure2, run_goal_sweep
from repro.workload.trace import TraceRecorder

from tests.golden_trace import (
    CONFIG,
    GOAL_RANGE,
    GOLDEN_PATH,
    INTERVALS,
    SEED,
    WARMUP_MS,
    load_trace,
    recording,
)


def _short_figure2(telemetry=None):
    return run_figure2(
        seed=SEED,
        intervals=INTERVALS,
        config=CONFIG,
        goal_range=GOAL_RANGE,
        warmup_ms=WARMUP_MS,
        telemetry=telemetry,
    )


def test_short_figure2_produces_parsing_artifacts(tmp_path):
    outdir = str(tmp_path / "tel")
    _short_figure2(telemetry=outdir)

    # JSONL trace: one JSON object per line, each with kind and time.
    trace_path = os.path.join(outdir, TRACE_FILE)
    with open(trace_path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records
    kinds = {r["kind"] for r in records}
    assert {"agent_report", "decision", "interval"} <= kinds
    assert all("t" in r for r in records)

    # Prometheus text exposition: TYPE lines plus name{labels} value.
    with open(os.path.join(outdir, METRICS_TEXT_FILE)) as fh:
        prom = fh.read().splitlines()
    assert any(line.startswith("# TYPE repro_") for line in prom)
    for line in prom:
        if line.startswith("#") or not line:
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # every sample value must parse
        assert name_part.startswith("repro_")

    # Chrome trace-event timeline (Perfetto-loadable).
    with open(os.path.join(outdir, TIMELINE_FILE)) as fh:
        timeline = json.load(fh)
    assert timeline["displayTimeUnit"] == "ms"
    events = timeline["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert "M" in phases  # process/thread metadata
    assert "X" in phases or "i" in phases
    assert all("ts" in e for e in events if e["ph"] != "M")

    # Metrics JSON dump.
    with open(os.path.join(outdir, METRICS_JSON_FILE)) as fh:
        metrics = json.load(fh)
    assert any(
        m["name"] == "repro_page_access_total"
        for m in metrics["metrics"]
    )


def test_golden_trace_bit_identical_with_telemetry(tmp_path):
    """Telemetry must not perturb RNG draws or event ordering."""
    golden = load_trace(GOLDEN_PATH).records
    with recording(TraceRecorder()) as recorder:
        _short_figure2(telemetry=str(tmp_path / "tel"))
    assert recorder.records == golden


def test_in_memory_telemetry_leaves_results_unchanged():
    data_on = _short_figure2(telemetry=True)
    data_off = _short_figure2()
    assert data_on.observed_rt == data_off.observed_rt
    assert data_on.dedicated_bytes == data_off.dedicated_bytes


def test_run_without_directory_writes_no_file(tmp_path, monkeypatch):
    from repro.experiments.runner import Simulation, default_workload

    monkeypatch.chdir(tmp_path)
    sim = Simulation(config=CONFIG, workload=default_workload(CONFIG),
                     seed=SEED, warmup_ms=WARMUP_MS, telemetry=True)
    sim.run(intervals=INTERVALS)
    assert sim.export_telemetry() is None
    assert os.listdir(tmp_path) == []
    assert sim.telemetry.outdir is None
    assert any(r["kind"] == "interval" for r in sim.telemetry.trace.records)


def test_streamed_run_keeps_no_records(tmp_path):
    from repro.experiments.runner import Simulation, default_workload

    outdir = str(tmp_path / "tel")
    sim = Simulation(config=CONFIG, workload=default_workload(CONFIG),
                     seed=SEED, warmup_ms=WARMUP_MS, telemetry=outdir)
    sim.warm()
    assert not os.path.exists(outdir)  # files open at activation
    sim.run(intervals=INTERVALS)
    assert sim.telemetry.trace.records is None
    with open(os.path.join(outdir, TRACE_FILE)) as fh:
        streamed = fh.read()
    assert streamed.count('"kind": "interval"') == INTERVALS
    assert not os.path.exists(os.path.join(outdir, TIMELINE_FILE))
    sim.export_telemetry()
    with open(os.path.join(outdir, TRACE_FILE)) as fh:
        assert fh.read().startswith(streamed)
    assert os.path.exists(os.path.join(outdir, TIMELINE_FILE))


def _telemetry_tree(root):
    tree = {}
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def _sweep(tmp_path, label, jobs):
    outdir = str(tmp_path / label)
    data = run_goal_sweep(
        goals=[3.0, 6.0],
        seed=5,
        intervals=3,
        config=CONFIG,
        goal_range=GOAL_RANGE,
        warmup_ms=WARMUP_MS,
        jobs=jobs,
        telemetry=outdir,
    )
    points = [
        (p.goal_ms, p.observed_rt, p.dedicated_bytes, p.p95_rt_ms)
        for p in data.points
    ]
    return points, _telemetry_tree(outdir)


def test_fork_and_cold_telemetry_trees_identical(tmp_path, monkeypatch):
    points_fork, tree_fork = _sweep(tmp_path, "fork", 1)
    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    points_cold, tree_cold = _sweep(tmp_path, "cold", 1)
    assert points_fork == points_cold
    assert tree_fork == tree_cold


def test_jobs_do_not_change_telemetry(tmp_path, monkeypatch):
    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    points_1, tree_1 = _sweep(tmp_path, "j1", 1)
    points_2, tree_2 = _sweep(tmp_path, "j2", 2)
    assert points_1 == points_2
    assert tree_1 == tree_2


def test_event_pool_gauges_exported(tmp_path):
    """The engine's timeout free-list shows up as export-time gauges.

    Off by default: the gauges are sampled only when telemetry is
    attached and an exporter collects, so disabled runs pay nothing.
    """
    outdir = str(tmp_path / "tel")
    _short_figure2(telemetry=outdir)
    found = {}
    for dirpath, _, files in os.walk(outdir):
        if METRICS_JSON_FILE not in files:
            continue
        path = os.path.join(dirpath, METRICS_JSON_FILE)
        with open(path, "r", encoding="utf-8") as fh:
            for entry in json.load(fh)["metrics"]:
                if entry["name"].startswith("repro_event_pool"):
                    found[entry["name"]] = entry["value"]
    assert "repro_event_pool_recycled" in found
    # Any real run recycles timeouts, so the high-water mark is live.
    assert found["repro_event_pool_high_water"] > 0


# -- merge_point_dirs ordering and resilience --------------------------


def _point_dir(tmp_path, name, records):
    point = tmp_path / name
    point.mkdir()
    with open(point / TRACE_FILE, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(point)


def test_merge_sorts_by_time_then_point_then_sequence(tmp_path):
    """The documented merge order: (sim-time, point position, emit
    sequence), stable across runners."""
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [
        {"kind": "interval", "t": 2000.0},
        {"kind": "decision", "t": 2000.0, "seq_marker": "a-second"},
        {"kind": "interval", "t": 4000.0},
    ])
    b = _point_dir(tmp_path, "b", [
        {"kind": "interval", "t": 1000.0},
        {"kind": "interval", "t": 2000.0},
    ])
    outdir = str(tmp_path / "merged")
    paths = merge_point_dirs(outdir, [("a", a), ("b", b)])
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        merged = [json.loads(line) for line in fh]
    assert [(r["t"], r["point"]) for r in merged] == [
        (1000.0, "b"),            # earliest sim-time wins
        (2000.0, "a"),            # tie at t=2000: point order a < b...
        (2000.0, "a"),            # ...then a's own emit sequence
        (2000.0, "b"),
        (4000.0, "a"),
    ]
    assert merged[2]["seq_marker"] == "a-second"


def test_merge_skips_missing_point_dir_with_warning(tmp_path):
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [{"kind": "interval", "t": 1.0}])
    missing = str(tmp_path / "never-written")
    outdir = str(tmp_path / "merged")
    with pytest.warns(RuntimeWarning, match="killed sweep"):
        paths = merge_point_dirs(
            outdir, [("a", a), ("gone", missing)]
        )
    with open(paths["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest[0]["records"] == 1 and "skipped" not in manifest[0]
    assert manifest[1]["skipped"] == "missing trace.jsonl"
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1


def test_merge_skips_torn_trace_with_warning(tmp_path):
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [{"kind": "interval", "t": 1.0}])
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / TRACE_FILE).write_text(
        json.dumps({"kind": "interval", "t": 2.0}) + "\n"
        + '{"kind": "interval", "t": 3'  # killed mid-line
    )
    outdir = str(tmp_path / "merged")
    with pytest.warns(RuntimeWarning, match="unparsable"):
        paths = merge_point_dirs(
            outdir, [("a", a), ("torn", str(torn))]
        )
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        merged = [json.loads(line) for line in fh]
    # The torn point is dropped whole; the healthy one survives.
    assert [r["point"] for r in merged] == ["a"]
