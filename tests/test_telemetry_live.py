"""The observability service: wire format, snapshots, catalog, server.

Covers SSE framing round-trip, the metric snapshots a streamed run
writes, the run-catalog scan over a fixture tree, the HTTP endpoints,
a stream that follows a run while it is written — a single run, every
point of a forked sweep, a run that grows after the client connected,
and one killed mid-interval — and the invariant everything hangs on:
bit-identity of a followed run against one nobody watches.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from typing import Dict, List, Tuple

import pytest

from repro.experiments.forkserver import supports_fork
from repro.telemetry.catalog import find_run, run_detail, scan_runs
from repro.telemetry.live import sse_format
from repro.telemetry.pipeline import Telemetry
from repro.telemetry.server import LiveService

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


def parse_sse(text: str) -> List[Tuple[str, Dict]]:
    """Parse SSE frames back into ``(event, data)`` pairs.

    The inverse of :func:`~repro.telemetry.live.sse_format`:
    frames are separated by blank lines, ``:`` comment lines (the
    keepalives) are ignored, and multiple ``data:`` lines concatenate
    with newlines per the SSE specification.  A trailing partial frame
    (no terminating blank line yet) is ignored rather than raised on,
    since callers typically parse a truncated live stream.
    """
    frames: List[Tuple[str, Dict]] = []
    for block in text.split("\n\n"):
        event = "message"
        data_lines: List[str] = []
        for line in block.split("\n"):
            if not line or line.startswith(":"):
                continue
            if line.startswith("event:"):
                event = line[len("event:"):].strip()
            elif line.startswith("data:"):
                data_lines.append(line[len("data:"):].lstrip())
        if not data_lines:
            continue
        try:
            data = json.loads("\n".join(data_lines))
        except ValueError:
            continue  # truncated tail of a live stream
        frames.append((event, data))
    return frames


class _Follower(threading.Thread):
    """One ``/events`` client that collects frames as they arrive."""

    def __init__(self, port: int, query: str = ""):
        super().__init__(daemon=True)
        self.port = port
        self.query = query
        self.frames: List[Tuple[str, Dict]] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        conn.request("GET", "/events" + self.query)
        block = []
        for raw in conn.getresponse():
            line = raw.decode("utf-8")
            if line == "\n":
                self.frames.extend(parse_sse("".join(block) + "\n"))
                block = []
            else:
                block.append(line)
        conn.close()

    def events(self) -> List[str]:
        return [event for event, _ in self.frames]

    def records(self) -> List[Dict]:
        return [data["record"] for event, data in self.frames
                if event == "trace"]


def _until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.02)


def _lines(path) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# -- SSE wire format ---------------------------------------------------


def test_sse_round_trip():
    frames = [
        ("trace", {"record": {"kind": "decision", "t": 1.5}}),
        ("metrics", {"t": 2000.0, "samples": [{"name": "x", "value": 3}]}),
        ("end", {"records": 2}),
    ]
    text = "".join(sse_format(event, data) for event, data in frames)
    assert parse_sse(text) == frames


def test_parse_sse_skips_keepalives_and_truncated_tail():
    text = (
        ": keepalive\n\n"
        + sse_format("trace", {"a": 1})
        + 'event: trace\ndata: {"trunc'
    )
    assert parse_sse(text) == [("trace", {"a": 1})]


def test_parse_sse_joins_multiline_data():
    text = 'event: blob\ndata: {"a":\ndata: 1}\n\n'
    assert parse_sse(text) == [("blob", {"a": 1})]


# -- metric snapshots --------------------------------------------------


def test_sampler_publishes_trace_and_paced_metric_deltas(tmp_path):
    tel = Telemetry()
    counter = tel.registry.counter("repro_test_total")
    tel.stream_to(str(tmp_path))
    counter.value = 1
    tel.emit("tick", 0.0)
    tel.emit("interval", 1000.0)    # flush -> snapshot
    tel.emit("tick", 1500.0)        # no interval -> no snapshot
    counter.value = 2
    tel.emit("interval", 2000.0)    # snapshot with the delta
    tel.emit("interval", 3000.0)    # nothing changed -> no line
    tel.close()
    assert [r["kind"] for r in _lines(tmp_path / "trace.jsonl")] == [
        "tick", "interval", "tick", "interval", "interval"]
    snapshots = _lines(tmp_path / "snapshots.jsonl")
    assert [s["t"] for s in snapshots] == [1000.0, 2000.0]
    assert [s["samples"][0]["value"] for s in snapshots] == [1, 2]
    assert tel.trace.records is None


def test_sampler_metrics_frames_only_carry_changes(tmp_path):
    tel = Telemetry()
    changing = tel.registry.counter("repro_changing_total")
    tel.registry.counter("repro_static_total").value = 7
    tel.stream_to(str(tmp_path))
    changing.value = 1
    tel.emit("interval", 0.0)
    changing.value = 2
    tel.emit("interval", 200.0)
    tel.close()
    frames = [[s["name"] for s in snapshot["samples"]]
              for snapshot in _lines(tmp_path / "snapshots.jsonl")]
    assert frames == [["repro_changing_total", "repro_static_total"],
                      ["repro_changing_total"]]


def test_snapshot_samplers_leave_the_exported_registry_alone(tmp_path):
    tel = Telemetry()
    tel.add_sampler(
        lambda: tel.registry.gauge("repro_pool_pages", pool=1).set(3)
    )
    tel.stream_to(str(tmp_path))
    tel.emit("interval", 1000.0)
    tel.close()
    # The snapshot saw the sampled gauge; the registry the export
    # renders did not gain it.
    [snapshot] = _lines(tmp_path / "snapshots.jsonl")
    assert [s["name"] for s in snapshot["samples"]] == ["repro_pool_pages"]
    assert list(tel.registry.samples()) == []


# -- following a run ---------------------------------------------------


def _golden_run(recorder, telemetry=None):
    from repro.experiments.figure2 import run_figure2

    with recording(recorder):
        return run_figure2(
            seed=SEED, intervals=INTERVALS, config=CONFIG,
            goal_range=GOAL_RANGE, warmup_ms=WARMUP_MS,
            telemetry=telemetry,
        )


def test_live_streaming_run_matches_golden_trace(tmp_path):
    """A run followed by a live client is bit-identical to the golden
    workload trace recorded with no telemetry at all, and the client
    receives every record the run wrote."""
    from repro.workload.trace import TraceRecorder

    service = LiveService(str(tmp_path)).start()
    follower = _Follower(service.port)
    follower.start()
    try:
        recorder = TraceRecorder()
        data = _golden_run(recorder, telemetry=str(tmp_path / "run"))
        follower.join(timeout=60)
    finally:
        service.stop()
    golden = load_trace(GOLDEN_PATH).records
    assert recorder.records == golden
    events = follower.events()
    assert events[0] == "run_start" and events[-1] == "end"
    assert "metrics" in events
    assert follower.records() == _lines(tmp_path / "run" / "trace.jsonl")
    assert data.quantiles is not None


def test_live_port_run_matches_plain_run_outputs(tmp_path):
    """figure2 streaming into a served directory produces the same
    series as one without telemetry (the --live-port CLI contract)."""
    plain = _golden_run(None)
    service = LiveService(str(tmp_path)).start()
    try:
        streamed = _golden_run(None, telemetry=str(tmp_path / "run"))
    finally:
        service.stop()
    assert streamed.observed_rt == plain.observed_rt
    assert streamed.goal == plain.goal
    assert streamed.dedicated_bytes == plain.dedicated_bytes
    assert streamed.satisfied == plain.satisfied


@pytest.mark.skipif(not supports_fork(), reason="platform has no os.fork")
def test_following_server_streams_every_forked_sweep_point(tmp_path):
    from repro.experiments.figure2 import run_goal_sweep

    root = str(tmp_path / "tel")
    service = LiveService(root).start()
    followers = [_Follower(service.port, f"?replay=rep0-goal{g}&speed=0")
                 for g in range(2)]
    for follower in followers:
        follower.start()
    try:
        sweep = run_goal_sweep(
            goals=[3.0, 6.0], seed=5, intervals=3, config=CONFIG,
            goal_range=GOAL_RANGE, warmup_ms=WARMUP_MS, telemetry=root,
        )
        for follower in followers:
            follower.join(timeout=60)
    finally:
        service.stop()
    assert sweep.runner == "fork"
    for g, follower in enumerate(followers):
        events = follower.events()
        assert events[0] == "run_start" and events[-1] == "end"
        assert "metrics" in events
        written = _lines(os.path.join(root, f"rep0-goal{g}", "trace.jsonl"))
        assert written and follower.records() == written


def _write_lines(path, records, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def test_follow_emits_appended_lines_and_ends_at_timeline(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    _write_lines(run / "trace.jsonl", [{"kind": "interval", "t": 1.0}])
    _write_lines(run / "snapshots.jsonl",
                 [{"t": 1.0, "samples": [{"name": "x", "value": 1}]}])
    service = LiveService(str(tmp_path)).start()
    follower = _Follower(service.port, "?replay=run")
    follower.start()
    try:
        _until(lambda: follower.events() == ["run_start", "trace"])
        # The snapshot waits for a later record: none has been written.
        _write_lines(run / "trace.jsonl", [{"kind": "decision", "t": 2.0}],
                     mode="a")
        _until(lambda: len(follower.frames) == 4)
        time.sleep(0.3)
        assert "end" not in follower.events()
        (run / "timeline.json").write_text("{}\n")
        follower.join(timeout=30)
    finally:
        service.stop()
    assert follower.events() == ["run_start", "trace", "metrics", "trace",
                                 "end"]
    assert [r["t"] for r in follower.records()] == [1.0, 2.0]
    assert follower.frames[-1][1]["records"] == 2


def test_follow_streams_a_killed_runs_trace_up_to_its_last_whole_line(
    tmp_path,
):
    run = tmp_path / "killed"
    run.mkdir()
    _write_lines(run / "trace.jsonl", [{"kind": "interval", "t": 1.0},
                                       {"kind": "decision", "t": 1.5}])
    with open(run / "trace.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"kind": "agent_report", "t": 1.')  # killed mid-write
    service = LiveService(str(tmp_path)).start()
    follower = _Follower(service.port, "?replay=killed")
    follower.start()
    try:
        _until(lambda: len(follower.frames) == 3)
        time.sleep(0.3)
    finally:
        service.stop()
    follower.join(timeout=30)
    assert follower.events() == ["run_start", "trace", "trace"]
    assert [r["kind"] for r in follower.records()] == ["interval",
                                                       "decision"]


# -- run catalog -------------------------------------------------------


def _write_run(path, records, meta=None, manifest=None):
    """A run directory as a finished export leaves it."""
    os.makedirs(path, exist_ok=True)
    _write_lines(os.path.join(path, "trace.jsonl"), records)
    if meta is not None:
        with open(os.path.join(path, "metrics.json"), "w") as fh:
            json.dump({"meta": meta, "metrics": []}, fh)
    if manifest is not None:
        with open(os.path.join(path, "points.json"), "w") as fh:
            json.dump(manifest, fh)
    else:
        with open(os.path.join(path, "timeline.json"), "w") as fh:
            json.dump({"traceEvents": []}, fh)


def _fixture_tree(root):
    """Two runs: a single export and a merged sweep with one point."""
    single = os.path.join(root, "single")
    _write_run(
        single,
        [{"kind": "interval", "t": 1000.0},
         {"kind": "decision", "t": 1500.0, "class_id": 1}],
        meta={"seed": 1, "num_nodes": 3},
    )
    sweep = os.path.join(root, "sweep")
    _write_run(
        sweep,
        [{"kind": "interval", "t": 500.0, "point": "g1"}],
        meta={"seed": 2, "num_nodes": 3},
        manifest=[
            {"label": "g1", "dir": "g1", "records": 1},
            {"label": "g2", "dir": "g2", "skipped": "missing"},
        ],
    )
    _write_run(os.path.join(sweep, "g1"),
               [{"kind": "interval", "t": 500.0}])
    return single, sweep


def test_catalog_scan_fixture_tree(tmp_path):
    root = str(tmp_path)
    _fixture_tree(root)
    runs = scan_runs(root)
    # The per-point g1 directory is folded into its sweep parent.
    assert [info.name for info in runs] == ["single", "sweep"]
    single, sweep = runs
    assert single.records == 2
    assert single.t_min == 1000.0 and single.t_max == 1500.0
    assert single.meta == {"seed": 1, "num_nodes": 3}
    assert sweep.points == ["g1"]
    assert sweep.skipped_points == ["g2"]
    assert len({info.run_id for info in runs}) == 2
    assert single.complete and sweep.complete


def test_catalog_ids_are_stable_across_scans(tmp_path):
    root = str(tmp_path)
    _fixture_tree(root)
    first = {info.name: info.run_id for info in scan_runs(root)}
    second = {info.name: info.run_id for info in scan_runs(root)}
    assert first == second


def test_catalog_find_and_detail(tmp_path):
    root = str(tmp_path)
    _fixture_tree(root)
    runs = scan_runs(root)
    single = next(info for info in runs if info.name == "single")
    assert find_run(root, single.run_id).path == single.path
    assert find_run(root, "single").path == single.path
    # A folded sweep point stays reachable by its name.
    assert find_run(root, "sweep/g1").records == 1
    assert find_run(root, "nonexistent") is None
    assert find_run(root, "../outside") is None
    assert find_run(root, "latest") is not None
    detail = run_detail(single)
    assert detail["kinds"] == {"decision": 1, "interval": 1}


def test_catalog_tolerates_torn_trace(tmp_path):
    run = tmp_path / "torn"
    run.mkdir()
    (run / "trace.jsonl").write_text(
        json.dumps({"kind": "interval", "t": 1.0}) + "\n"
        + '{"kind": "interval", "t": 2.0'  # killed mid-write
    )
    (info,) = scan_runs(str(tmp_path))
    assert info.records == 1
    assert not info.complete


# -- HTTP service ------------------------------------------------------


def _get(port, path, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("GET", path)
    resp = conn.getresponse()
    body = resp.read()
    conn.close()
    return resp.status, body


def test_replay_service_serves_all_endpoints(tmp_path):
    root = str(tmp_path)
    _fixture_tree(root)
    service = LiveService(root, port=0).start()
    try:
        status, body = _get(service.port, "/")
        assert status == 200 and b"<!DOCTYPE html>" in body
        status, body = _get(service.port, "/api/runs")
        doc = json.loads(body)
        assert status == 200 and len(doc["runs"]) == 2
        assert doc["live"] is False
        run_id = doc["runs"][0]["id"]
        status, body = _get(service.port, f"/api/runs/{run_id}")
        assert status == 200 and "kinds" in json.loads(body)
        status, body = _get(service.port, "/api/runs/bogus")
        assert status == 404
        status, body = _get(service.port, "/nope")
        assert status == 404
        status, body = _get(
            service.port, f"/events?replay={run_id}&speed=0"
        )
        frames = parse_sse(body.decode())
        assert frames[0][0] == "run_start"
        assert frames[-1][0] == "end"
        assert [e for e, _ in frames].count("trace") == 2
    finally:
        service.stop()


def test_replay_service_metrics_concatenates_recorded_scrapes(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "trace.jsonl").write_text("")
    (run / "metrics.prom").write_text(
        "# TYPE repro_x counter\nrepro_x 1\n"
    )
    service = LiveService(str(tmp_path), port=0).start()
    try:
        status, body = _get(service.port, "/metrics")
        assert status == 200 and b"repro_x 1" in body
        status, body = _get(service.port, "/api/runs")
        # The run has no timeline.json yet: it is still being written.
        assert json.loads(body)["live"] is True
    finally:
        service.stop()
