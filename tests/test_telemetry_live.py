"""The live observability service: bus, wire formats, catalog, server.

Covers the ISSUE-10 contract: bounded-queue drop accounting under a
slow subscriber, SSE framing round-trip, the run-catalog scan over a
fixture tree, the HTTP endpoints in both replay and live mode, and —
the invariant everything hangs on — bit-identity of a run with live
streaming against one without.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from typing import Dict, List, Tuple

import pytest

from repro.telemetry import live as live_mod
from repro.telemetry.catalog import find_run, run_detail, scan_runs
from repro.telemetry.live import (
    SnapshotSampler,
    Subscription,
    TelemetryBus,
    sse_format,
)
from repro.telemetry.pipeline import Telemetry
from repro.telemetry.server import LiveService

from tests.golden_trace import (
    CONFIG,
    GOAL_RANGE,
    GOLDEN_PATH,
    INTERVALS,
    SEED,
    WARMUP_MS,
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


@pytest.fixture(autouse=True)
def _no_leftover_live_hook():
    """Every test starts and ends with the live hook disarmed."""
    live_mod.uninstall()
    yield
    live_mod.uninstall()


# -- bus and subscription ----------------------------------------------


def test_bus_fanout_delivers_to_every_subscriber():
    bus = TelemetryBus()
    a, b = bus.subscribe(), bus.subscribe()
    for i in range(5):
        bus.publish({"i": i})
    assert [a.get(0)["i"] for _ in range(5)] == list(range(5))
    assert [b.get(0)["i"] for _ in range(5)] == list(range(5))
    assert bus.published == 5
    assert a.delivered == b.delivered == 5


def test_slow_subscriber_drops_oldest_with_accounting(monkeypatch):
    bus = TelemetryBus()
    monkeypatch.setattr(live_mod, "QUEUE_LIMIT", 4)
    slow = bus.subscribe()
    monkeypatch.setattr(live_mod, "QUEUE_LIMIT", 100)
    fast = bus.subscribe()
    for i in range(10):
        bus.publish({"i": i})
    # The slow queue kept only the newest 4; the overflow is counted.
    assert slow.dropped == 6
    assert [slow.get(0)["i"] for _ in range(4)] == [6, 7, 8, 9]
    assert fast.dropped == 0
    # Drops never back-pressured the publisher.
    assert bus.published == 10


def test_slow_subscriber_does_not_block_publish_thread(monkeypatch):
    bus = TelemetryBus()
    monkeypatch.setattr(live_mod, "QUEUE_LIMIT", 1)
    sub = bus.subscribe()
    done = threading.Event()

    def pump():
        for i in range(1000):
            bus.publish({"i": i})
        done.set()

    t = threading.Thread(target=pump)
    t.start()
    t.join(timeout=5.0)
    assert done.is_set(), "publish blocked on a full subscriber queue"
    assert sub.dropped == 999


def test_subscription_get_times_out_and_close_wakes_reader():
    sub = Subscription(maxlen=2)
    assert sub.get(timeout=0.01) is None
    got = []
    t = threading.Thread(target=lambda: got.append(sub.get(timeout=5.0)))
    t.start()
    sub.close()
    t.join(timeout=5.0)
    assert got == [None]
    assert sub.closed


def test_bus_close_closes_subscribers_and_rejects_publishes():
    bus = TelemetryBus()
    sub = bus.subscribe()
    bus.close()
    assert sub.closed
    bus.publish({"i": 1})
    assert bus.published == 0
    assert bus.subscribe().closed


def test_subscription_rejects_zero_bound():
    with pytest.raises(ValueError):
        Subscription(maxlen=0)


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


# -- sampler -----------------------------------------------------------


def test_sampler_publishes_trace_and_paced_metric_deltas():
    tel = Telemetry()
    bus = TelemetryBus()
    counter = tel.registry.counter("repro_test_total")
    tel.trace.listener = SnapshotSampler(tel, bus, interval_ms=1000.0)
    sub = bus.subscribe()
    counter.value = 1
    tel.emit("tick", 0.0)        # crosses t=0 -> snapshot
    tel.emit("tick", 500.0)      # within the interval -> no snapshot
    counter.value = 2
    tel.emit("tick", 1500.0)     # crosses -> snapshot with the delta
    tel.emit("tick", 1600.0)     # within -> nothing
    types = []
    while (record := sub.get(0)) is not None:
        types.append(record["type"])
        if record["type"] == "metrics":
            assert record["samples"][0]["name"] == "repro_test_total"
    assert types == ["trace", "metrics", "trace", "trace", "metrics",
                     "trace"]


def test_sampler_metrics_frames_only_carry_changes():
    tel = Telemetry()
    bus = TelemetryBus()
    changing = tel.registry.counter("repro_changing_total")
    tel.registry.counter("repro_static_total").value = 7
    tel.trace.listener = SnapshotSampler(tel, bus, interval_ms=100.0)
    sub = bus.subscribe()
    changing.value = 1
    tel.emit("tick", 0.0)
    changing.value = 2
    tel.emit("tick", 200.0)
    frames = []
    while (record := sub.get(0)) is not None:
        if record["type"] == "metrics":
            frames.append([s["name"] for s in record["samples"]])
    assert frames[0] == ["repro_changing_total", "repro_static_total"]
    assert frames[1] == ["repro_changing_total"]


# -- bit-identity with live streaming ----------------------------------


def _golden_run(recorder):
    from repro.experiments.figure2 import run_figure2

    with recording(recorder):
        return run_figure2(
            seed=SEED, intervals=INTERVALS, config=CONFIG,
            goal_range=GOAL_RANGE, warmup_ms=WARMUP_MS,
        )


def test_live_streaming_run_matches_golden_trace():
    """A run streamed to a live service is bit-identical to the golden
    workload trace recorded with no telemetry at all."""
    from repro.workload.trace import TraceRecorder

    service = LiveService.live(port=0).start()
    drained = []
    sub = service.bus.subscribe()

    def drain():
        while (record := sub.get(timeout=5.0)) is not None:
            drained.append(record)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        recorder = TraceRecorder()
        data = _golden_run(recorder)
    finally:
        service.stop()
    reader.join(timeout=5.0)
    golden = TraceRecorder.load(GOLDEN_PATH).records
    assert recorder.records == golden
    # And the run really streamed while it ran.
    assert any(r["type"] == "trace" for r in drained)
    assert any(r["type"] == "metrics" for r in drained)
    assert data.quantiles is not None


def test_live_port_run_matches_plain_run_outputs():
    """figure2 with the live hook armed produces the same series as
    one without (the --live-port CLI contract)."""
    plain = _golden_run(None)
    service = LiveService.live(port=0).start()
    try:
        streamed = _golden_run(None)
    finally:
        service.stop()
    assert streamed.observed_rt == plain.observed_rt
    assert streamed.goal == plain.goal
    assert streamed.dedicated_bytes == plain.dedicated_bytes
    assert streamed.satisfied == plain.satisfied


# -- run catalog -------------------------------------------------------


def _write_run(path, records, meta=None, manifest=None):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "trace.jsonl"), "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if meta is not None:
        with open(os.path.join(path, "metrics.json"), "w") as fh:
            json.dump({"meta": meta, "metrics": []}, fh)
    if manifest is not None:
        with open(os.path.join(path, "points.json"), "w") as fh:
            json.dump(manifest, fh)


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
    assert find_run(root, "nonexistent") is None
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
    service = LiveService.replay(root, port=0).start()
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
    service = LiveService.replay(str(tmp_path), port=0).start()
    try:
        status, body = _get(service.port, "/metrics")
        assert status == 200 and b"repro_x 1" in body
    finally:
        service.stop()


def test_live_service_installs_and_uninstalls_hook():
    service = LiveService.live(port=0).start()
    assert live_mod.installed() is service.bus
    service.stop()
    assert live_mod.installed() is None
