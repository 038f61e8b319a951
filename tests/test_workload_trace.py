"""Unit tests for trace recording and replay."""

import pytest

from repro.cluster.cluster import Cluster
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import TraceRecord, TraceRecorder, TraceReplayer

from tests.golden_trace import load_trace, save_trace


def test_recorder_collects_operations(fast_config, fast_workload):
    cluster = Cluster(fast_config, seed=2)
    recorder = TraceRecorder()
    generator = WorkloadGenerator(cluster, fast_workload, recorder=recorder)
    generator.start()
    cluster.env.run(until=10_000.0)
    assert recorder.records
    for rec in recorder.records:
        assert rec.time >= 0
        assert 0 <= rec.node_id < fast_config.num_nodes
        assert len(rec.pages) == 4


def test_save_and_load_roundtrip(tmp_path):
    recorder = TraceRecorder()
    recorder.record(1.5, 0, 1, (10, 20))
    recorder.record(2.5, 2, 0, (30,))
    path = tmp_path / "trace.jsonl"
    save_trace(recorder, str(path))
    loaded = load_trace(str(path))
    assert loaded.records == recorder.records


def test_replay_executes_same_operations(fast_config, fast_workload):
    # Record a run.
    cluster = Cluster(fast_config, seed=3)
    recorder = TraceRecorder()
    generator = WorkloadGenerator(cluster, fast_workload, recorder=recorder)
    generator.start()
    cluster.env.run(until=10_000.0)
    n_recorded = len(recorder.records)

    # Replay against a fresh cluster.
    replay_cluster = Cluster(fast_config, seed=99)

    class CountSink:
        def __init__(self):
            self.completed = 0

        def on_arrival(self, *args):
            pass

        def on_complete(self, *args):
            self.completed += 1

    sink = CountSink()
    replayer = TraceReplayer(replay_cluster, recorder.records, sink=sink)
    replayer.start()
    replay_cluster.env.run()
    assert replayer.operations_completed == n_recorded
    assert sink.completed == n_recorded


def test_replay_respects_arrival_times(fast_config):
    cluster = Cluster(fast_config, seed=0)
    records = [
        TraceRecord(time=100.0, node_id=0, class_id=0, pages=(0,)),
        TraceRecord(time=500.0, node_id=1, class_id=0, pages=(1,)),
    ]
    starts = []

    class StartSink:
        def on_arrival(self, node_id, class_id, now):
            starts.append(now)

        def on_complete(self, *args):
            pass

    replayer = TraceReplayer(cluster, records, sink=StartSink())
    replayer.start()
    cluster.env.run()
    assert starts == [pytest.approx(100.0), pytest.approx(500.0)]


def test_replay_sorts_unordered_records(fast_config):
    cluster = Cluster(fast_config, seed=0)
    records = [
        TraceRecord(time=500.0, node_id=0, class_id=0, pages=(0,)),
        TraceRecord(time=100.0, node_id=0, class_id=0, pages=(1,)),
    ]
    replayer = TraceReplayer(cluster, records)
    assert [r.time for r in replayer.records] == [100.0, 500.0]
