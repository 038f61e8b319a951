"""Ablation — cost-based benefit replacement vs. plain LRU (§6).

The paper integrates the Sinnwell-Weikum cost-based policy because
neither purely egoistic nor purely altruistic replacement uses the
aggregate memory optimally.  This ablation replays the *same* recorded
operation trace under both policies and compares the storage-level mix:
the cost-based policy must not lose to LRU on expensive disk accesses.
"""

from repro.bufmgr.costs import AccessLevel
from repro.cluster.cluster import Cluster
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import TraceRecorder, TraceReplayer
from repro.experiments.runner import default_workload
from repro.experiments.reporting import emit, format_table


def record_trace(config, horizon_ms=120_000.0, seed=42):
    cluster = Cluster(config, seed=seed)
    recorder = TraceRecorder()
    workload = default_workload(config, skew=0.5)
    generator = WorkloadGenerator(cluster, workload, recorder=recorder)
    generator.start()
    cluster.env.run(until=horizon_ms)
    return recorder.records


def replay(config, records, policy):
    cluster = Cluster(config, seed=7, policy=policy)
    replayer = TraceReplayer(cluster, records)
    replayer.start()
    cluster.env.run()
    costs = cluster.costs
    counts = {
        level: costs.observations(level) for level in AccessLevel
    }
    total = sum(counts.values())
    return {
        "policy": policy,
        "disk_fraction": counts[AccessLevel.DISK] / total,
        "local_fraction": counts[AccessLevel.LOCAL] / total,
        "remote_fraction": counts[AccessLevel.REMOTE] / total,
        "completed": replayer.operations_completed,
    }


def test_costbased_vs_lru(benchmark, bench_config):
    records = record_trace(bench_config)

    def run():
        return [
            replay(bench_config, records, policy)
            for policy in ("cost", "lru", "lruk")
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit()
    emit(format_table(
        ["policy", "disk", "remote", "local", "ops"],
        [
            [r["policy"], r["disk_fraction"], r["remote_fraction"],
             r["local_fraction"], r["completed"]]
            for r in results
        ],
        title="Ablation: replacement policy on an identical trace",
    ))
    by_policy = {r["policy"]: r for r in results}
    # All policies completed the same trace.
    assert len({r["completed"] for r in results}) == 1
    # The cost-based policy must be competitive with LRU on the
    # expensive level (within 15 % relative).
    assert (
        by_policy["cost"]["disk_fraction"]
        <= by_policy["lru"]["disk_fraction"] * 1.15
    )
