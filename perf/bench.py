"""The repository benchmark: four pinned experiment workloads, end to end.

Usage (from the repository root)::

    python3 perf/bench.py [--workload NAME ...] [--seed S] [--seconds T]
                          [--trace [0|1]] [--out FILE]

Each workload runs in a fresh single-threaded child process, one after
another.  The child repeats one *repetition* — build the
:class:`Simulation`, warm it up, activate the controller (``setup_s``),
then run the workload's measured intervals (``wall_s``) — until
``--seconds`` have passed, and reports the medians.  Every repetition
of one seed is the same simulation, so each must end with the same
digest; a repetition that fails a correctness check counts all of its
operations as failed and makes the command exit non-zero.

``--trace 1`` alternates untraced and traced repetitions: the wrappers
in :mod:`spans` time each layer's entry points, the run reports the
per-layer metrics instead of the end-to-end ones, and it writes
``perf-trace-<workload>.json`` (Chrome trace-event format) in the
working directory.

For each workload the command prints the metrics by name with their
units and, as the workload's last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
names, units and directions are declared in ``BENCHMARK.json``.
``--out`` also writes the full per-repetition record, the input of
``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

# workloads puts the checkout's src/ on the import path first.
from workloads import ROOT, WORKLOADS, Workload
from spans import Tracer

from repro.bufmgr.costs import LEVEL_ORDER

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Seconds one run measures by default (``run_seconds`` in
#: BENCHMARK.json).
DEFAULT_SECONDS = 20
#: Host seconds a child may take beyond ``--seconds`` (its last
#: repetition, set-up and imports) before it is killed.
CHILD_GRACE_S = 150


def declared_metrics() -> Dict[str, List[dict]]:
    """The ``end_to_end`` and ``per_layer`` declarations of BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- one repetition ---------------------------------------------------------


def _counters(sim) -> Dict[str, int]:
    costs = sim.cluster.costs
    counters = {
        level.value: costs.observations(level) for level in LEVEL_ORDER
    }
    counters["started"] = sim.generator.operations_started
    counters["completed"] = sim.generator.operations_completed
    txn = sim.txn_manager
    counters["committed"] = txn.committed if txn else 0
    counters["aborted"] = txn.aborted if txn else 0
    counters["deadlocks"] = (
        sum(locks.deadlocks_detected for locks in txn.locks.values())
        if txn else 0
    )
    counters["wal_forces"] = (
        sum(log.forces for log in txn.logs.values()) if txn else 0
    )
    return counters


def check(sim, accesses: int) -> List[str]:
    """Correctness checks at the end of a repetition; [] when clean."""
    cluster = sim.cluster
    problems = list(cluster.directory.audit(cluster.pool_contents()))
    limit = cluster.config.node.buffer_bytes
    for node in cluster.nodes:
        dedicated = node.buffers.total_dedicated_bytes()
        if dedicated > limit:
            problems.append(
                f"node {node.node_id}: {dedicated} dedicated bytes exceed "
                f"its {limit}-byte buffer"
            )
    generator = sim.generator
    if generator.operations_completed > generator.operations_started:
        problems.append(
            f"{generator.operations_completed} operations completed but "
            f"only {generator.operations_started} started"
        )
    if accesses <= 0:
        problems.append("no page accesses in the measured phase")
    return problems


def digest(sim) -> str:
    """SHA-256 of the per-interval series, access counts and clock."""
    series = {
        class_id: {
            "observed_rt": [s.observed_rt.times, s.observed_rt.values],
            "goal": s.goal.values,
            "dedicated_bytes": s.dedicated_bytes.values,
            "satisfied": [bool(x) for x in s.satisfied],
        }
        for class_id, s in sorted(sim.controller.series.items())
    }
    costs = sim.cluster.costs
    payload = {
        "series": series,
        "accesses": [costs.observations(level) for level in LEVEL_ORDER],
        "now": sim.env.now,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def simulated(sim) -> Dict[str, float]:
    """The run's simulated outcome over the measured intervals.

    Every value repeats exactly for a given seed, so a pure speed-up
    leaves them unchanged.
    """
    met, excess, nogoal = [], [], []
    for s in sim.controller.series.values():
        met.extend(s.satisfied)
        goal_at = dict(zip(s.goal.times, s.goal.values))
        excess.extend(
            max(0.0, rt - goal_at[t])
            for t, rt in zip(s.observed_rt.times, s.observed_rt.values)
        )
        nogoal.extend(s.nogoal_rt.values)
    return {
        "goal_met_frac": statistics.fmean(met),
        "goal_excess_ms": statistics.fmean(excess),
        "nogoal_rt_ms": statistics.fmean(nogoal),
    }


def run_rep(workload: Workload, seed: int, intervals: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> dict:
    """Build, warm, activate and run one repetition of ``workload``."""
    intervals = workload.intervals if intervals is None else intervals
    # Collect the previous repetition's garbage outside the timed parts.
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        sim = workload.build(seed)
        sim.warm()
        sim.activate()
        setup_s = perf_counter() - start
        before = _counters(sim)
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        sim.run(intervals)
        wall_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = _counters(sim)
    delta = {key: after[key] - before[key] for key in after}
    accesses = sum(delta[level.value] for level in LEVEL_ORDER)
    rep = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "accesses": accesses,
        "delta": delta,
        "problems": check(sim, accesses),
        "digest": digest(sim),
        "simulated": simulated(sim),
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, sim, rep)
    return rep


def layer_metrics(tracer: Tracer, sim, rep: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Span times are self times as shares of the traced measured wall
    time.  ``benefit_at`` is charged to the span that called it: to the
    probe (hit repricing), to ``apply_allocation`` (pool-resize
    evictions), or otherwise to victim selection.
    """
    wall = rep["wall_s"]
    delta = rep["delta"]
    accesses = rep["accesses"]
    t = tracer

    def share(*names: str) -> float:
        return sum(t.self_s(name) for name in names) / wall

    benefit = "BenefitModel.benefit_at"
    probe_benefit = t.self_s(benefit, "NodeBufferManager.probe")
    alloc_benefit = t.self_s(benefit, "Cluster.apply_allocation")
    evictions = t.evictions
    cluster = sim.cluster
    disks = [node.disk for node in cluster.nodes]
    attributed = t.attributed_s()
    m = {
        "sim.self_frac": (wall - attributed) / wall,
        "workload.refill_frac": share(
            "ExponentialColumn.refill", "ZipfColumn.refill"
        ),
        "workload.ops": delta["completed"],
        "bufmgr.probe_frac": share("NodeBufferManager.probe")
        + probe_benefit / wall,
        "bufmgr.admit_frac": share("NodeBufferManager.admit"),
        "bufmgr.victim_frac": share("CostBasedPool.insert", benefit)
        - (probe_benefit + alloc_benefit) / wall,
        "bufmgr.evictions": evictions,
        "bufmgr.evictions_per_access": evictions / accesses,
        "bufmgr.repricings_per_eviction": (
            t.calls(benefit, "CostBasedPool.insert") / evictions
            if evictions else 0.0
        ),
        "bufmgr.heat_frac": share(
            "HeatTracker.record", "HeatTracker.record_slot",
            "GlobalHeatRegistry.record",
        ),
        "directory.remote_holder_frac": share("PageDirectory.remote_holder"),
        "directory.register_frac": share("PageDirectory.register"),
        "directory.unregister_frac": share(
            "PageDirectory.unregister", "PageDirectory.unregister_many"
        ),
        "cluster.cost_observe_frac": share("CostObserver.observe"),
        "cluster.net_util": cluster.network.utilization(),
        "cluster.net_wait_ms": cluster.network.medium.mean_wait,
        "cluster.disk_util": statistics.fmean(
            disk.utilization() for disk in disks
        ),
        "cluster.disk_wait_ms": statistics.fmean(
            disk.mean_queue_wait for disk in disks
        ),
        "core.lin_independence_frac": share("MeasureWindow.observe"),
        "core.lin_independence_calls": t.calls("MeasureWindow.observe"),
        "core.approximation_frac": share("MeasureWindow.fit_planes"),
        "core.approximation_calls": t.calls("MeasureWindow.fit_planes"),
        "core.optimization_frac": share("coordinator.solve_partitioning"),
        "core.optimization_calls": t.calls("coordinator.solve_partitioning"),
        "core.evaluate_frac": share("Coordinator.evaluate"),
        "core.agent_snapshot_frac": share("ClassAgent.snapshot"),
        "core.apply_allocation_frac": share("Cluster.apply_allocation")
        + alloc_benefit / wall,
        "core.reallocations": t.calls("Cluster.apply_allocation"),
        "telemetry.on_access_frac": share("Telemetry.on_access"),
        "telemetry.emit_frac": share("Telemetry.emit"),
        "txn.committed": delta["committed"],
        "txn.aborted": delta["aborted"],
        "txn.deadlocks": delta["deadlocks"],
        "txn.wal_forces": delta["wal_forces"],
        "trace.wall_s": wall,
        "trace.attributed_frac": attributed / wall,
    }
    for level in LEVEL_ORDER:
        m[f"cluster.{level.value}_access_frac"] = (
            delta[level.value] / accesses
        )
        m[f"cluster.{level.value}_cost_ms"] = cluster.costs.cost(level)
    for name, value in rep["simulated"].items():
        m[f"core.{name}"] = value
    return m


# -- one run: repetitions until the time is up --------------------------------


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def measure(name: str, seed: int, seconds: float, trace: bool,
            intervals: Optional[int] = None,
            trace_path: Optional[str] = None) -> dict:
    """Repeat ``name`` until ``seconds`` have passed; the run's record.

    ``intervals`` overrides the workload's measured interval count
    (tests use it to shorten runs).  With ``trace`` every untraced
    repetition is followed by a traced one, and ``trace_path`` (if
    given) receives the last traced repetition's Chrome trace.
    """
    workload = WORKLOADS[name]
    deadline = perf_counter() + seconds
    untraced: List[dict] = []
    traced: List[dict] = []
    while True:
        untraced.append(run_rep(workload, seed, intervals))
        if trace:
            # Alternate with untraced repetitions so the tracing overhead
            # compares medians taken over the same stretch of time.
            tracer = Tracer()
            traced.append(run_rep(workload, seed, intervals, tracer))
        if perf_counter() >= deadline:
            break
    reps = untraced + traced

    problems = [p for rep in reps for p in rep["problems"]]
    digests = sorted({rep["digest"] for rep in reps})
    attempted = sum(rep["delta"]["started"] for rep in reps)
    failed = sum(
        rep["delta"]["started"] if rep["problems"]
        else rep["delta"]["aborted"]
        for rep in reps
    )
    if len(digests) > 1:
        problems.append(
            "repetitions of one seed ended with different digests"
        )
        failed = attempted

    samples = {
        "setup_s": [rep["setup_s"] for rep in untraced],
        "wall_s": [rep["wall_s"] for rep in untraced],
        "accesses_per_s": [
            rep["accesses"] / rep["wall_s"] for rep in untraced
        ],
        "peak_rss_mb": [_peak_rss_mb()],
    }
    if trace:
        metrics = {
            key: statistics.median(rep["layers"][key] for rep in traced)
            for key in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            / statistics.median(samples["wall_s"]) - 1.0
        )
        if trace_path is not None:
            tracer.write_chrome_trace(
                trace_path, traced[-1]["wall_s"],
                {"workload": name, "seed": seed, "digest": digests[0]},
            )
    else:
        metrics = {key: statistics.median(v) for key, v in samples.items()}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "intervals": workload.intervals if intervals is None else intervals,
        "repetitions": len(reps),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "simulated": reps[0]["simulated"],
        "metrics": metrics,
        "samples": samples,
    }


# -- command line -------------------------------------------------------------


def result_line(record: dict, declared: List[dict]) -> dict:
    """A workload's result line: exactly the declared metrics."""
    computed = record["metrics"]
    names = [d["name"] for d in declared]
    if set(names) != set(computed):
        raise KeyError(
            "computed and declared metrics differ: "
            f"{sorted(set(names) ^ set(computed))}"
        )
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            d["name"]: {"value": computed[d["name"]], "unit": d["unit"]}
            for d in declared
        },
    }


def _run_child(name: str, args) -> Optional[dict]:
    """Measure one workload in a fresh single-threaded process."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True,
            timeout=args.seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{name}: timed out\n")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"{name}: child exited with {proc.returncode}\n")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_record(record: dict, declared: List[dict]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']}  seed {record['seed']}  "
        f"{record['repetitions']} repetitions of {record['intervals']} "
        f"intervals ({mode})"
    )
    for d in declared:
        value = record["metrics"][d["name"]]
        print(f"  {d['name']:<34} {value:>14.6g} {d['unit']}")
    sim = "  ".join(f"{k}={v:.6g}" for k, v in record["simulated"].items())
    print(f"  simulated: {sim}")
    print(f"  digest: {' '.join(record['digests'])}")
    status = "ok" if record["correct"] else "FAILED"
    print(f"  checks: {status}  ({record['failed']} of "
          f"{record['attempted']} operations failed)")
    for problem in record["problems"][:10]:
        print(f"    {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark workloads."
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, in order)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="keep repeating each workload until this many seconds "
        "have passed (0: one repetition)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced repetitions",
    )
    parser.add_argument("--out", help="write the full records as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        record = measure(
            args.child, args.seed, args.seconds, bool(args.trace),
            trace_path=(
                f"perf-trace-{args.child}.json" if args.trace else None
            ),
        )
        print(json.dumps(record))
        return 0

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    names = args.workload or list(WORKLOADS)
    records = {}
    for name in names:
        record = _run_child(name, args)
        if record is None:
            return 2
        records[name] = record
        _print_record(record, declared)
        print(json.dumps(result_line(record, declared)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds,
                 "trace": bool(args.trace), "workloads": records},
                fh, indent=1,
            )
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
