"""Substrate performance report: ``python benchmarks/perf_report.py``.

Times the same workloads as :mod:`benchmarks.test_kernel_microbench`
with a plain ``time.perf_counter`` harness (no pytest needed) plus a
small fixed figure-2 run, and writes ``BENCH_substrate.json`` at the
repository root.  ``--scaling`` instead runs the cluster-scaling bench
(page-access cost vs. node count and database size, plus the heat
bookkeeping memory footprint) and writes ``BENCH_scaling.json``.
``--sweep`` times cold vs. fork-server goal sweeps (see
:mod:`repro.experiments.forkserver`) and writes ``BENCH_sweep.json``;
the recorded speedups are measured in the same run, so they need no
cross-commit baseline constants.

The ``BASELINE_SECONDS`` constants are the best-of-5 times of the same
workloads measured on the pre-optimization substrate (commit
``db4fa24``, CPython 3.11, single core) on the same machine that
produced the committed report — they are the reference the recorded
``speedup`` figures are relative to.  The ``SCALING_BASELINE``
constants follow the same convention against the pre-change tree
(commit ``37b700f``, before the vectorized arrival front-end and the
fetch-chain access path), measured interleaved with the optimized
tree — alternating subprocess runs, best over ~20 alternations spread
across several minutes — so host-level noise windows hit both sides
equally.  Re-run this script after kernel changes and compare against
your own machine's committed numbers, not across machines.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.cluster.config import SystemConfig  # noqa: E402
from repro.experiments.reporting import emit  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402
from repro.sim.resources import Resource  # noqa: E402

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
SCALING_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_scaling.json"
)
SWEEP_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
)
TELEMETRY_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
)
FAULTS_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_faults.json"
)
ANALYTIC_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_analytic.json"
)
#: The acceptance bar for an attached-but-idle fault layer: at most
#: this fraction of extra wall clock on either measured level.
FAULTS_IDLE_TARGET = 0.02

#: The acceptance bar for live streaming: an installed bus plus one
#: draining subscriber may add at most this fraction of end-to-end
#: wall clock over the same telemetry-enabled run without them.
LIVE_STREAM_TARGET = 0.02

#: Pre-change reference times (seconds, best of 5) for this machine.
BASELINE_SECONDS = {
    "event_throughput": 0.0300,   # 10k timeout events
    "page_access_path": 0.2666,   # 2k data-shipping accesses
}

EVENT_COUNT = 10_000
ACCESS_COUNT = 2_000

#: Pre-columnar (commit ``93909c8``) scaling references for this
#: machine: seconds (best of 6, interleaved with the optimized tree)
#: for the access benches, peak tracemalloc bytes for the heat-memory
#: probes.  Populated by the interleaved baseline session that
#: accompanied the columnar-hot-state change; rows the old tree was
#: never measured on are simply absent.
SCALING_BASELINE = {
    "hot_access_8_nodes": 0.2273,
    "hot_access_16_nodes": 0.2382,
    "hot_access_32_nodes": 0.2476,
    "hot_access_64_nodes": 0.3149,
    "hot_access_128_nodes": 0.3915,
    "hot_access_256_nodes": 0.4632,
    "hot_access_512_nodes": 0.5636,
    "mixed_access_32n_2000_pages": 0.1973,
    "mixed_access_32n_8000_pages": 0.2533,
    "mixed_access_32n_32000_pages": 0.5592,
    "mixed_access_32n_200000_pages": 0.4804,
    "mixed_access_32n_1000000_pages": 0.4466,
    "working_set_32n_8000_pages": 0.1854,
    "working_set_32n_200000_pages": 0.3057,
    "working_set_32n_1000000_pages": 0.2778,
    "heat_memory_200k_pages": 47_915_868,
    "heat_memory_1m_pages": 208_691_088,
}

#: CI regression gate: a quick-subset row may be at most this much
#: slower (relative us_per_access) than the committed scaling report
#: before ``--check-regression`` fails the run — after normalizing by
#: the median measured/committed ratio across the compared rows, so a
#: uniformly slower CI machine (or a noisy host window) cancels out
#: and only *shape* changes fail: one workload regressing while the
#: rest hold is exactly what the gate exists to catch.  25% because
#: the residual per-row spread after normalization measures ±15% on a
#: busy host even with no code change (the shortest rows run ~0.15 s);
#: an algorithmic scaling regression — the 2.7× node-count cliff this
#: gate was built against — clears 25% by an order of magnitude.
REGRESSION_TOLERANCE = 0.25

HOT_ACCESS_COUNT = 30_000   # hit-dominated accesses per hot bench run
MIXED_ACCESS_COUNT = 20_000  # accesses per database-size bench run

#: Node counts of the hot-access rows and database sizes of the mixed
#: and fixed-working-set rows; the ``--quick`` CI subset keeps one
#: small and one large point per family.
HOT_NODE_COUNTS = (8, 16, 32, 64, 128, 256, 512)
MIXED_PAGE_COUNTS = (2_000, 8_000, 32_000, 200_000, 1_000_000)
WORKING_SET_TABLES = (8_000, 200_000, 1_000_000)
WORKING_SET_PAGES = 8_000   # pages actually touched by the sweep rows
QUICK_HOT_NODE_COUNTS = (16, 64)
QUICK_MIXED_PAGE_COUNTS = (8_000, 32_000)
QUICK_WORKING_SET_TABLES = (8_000, 1_000_000)
HEAT_PAGE_COUNTS = (200_000, 1_000_000)  # heat-memory probe sizes
QUICK_HEAT_PAGE_COUNTS = (200_000,)


def best_of(setup, run, repeats: int) -> float:
    """Best wall-clock time of ``run(state)`` over fresh setups."""
    best = float("inf")
    for _ in range(repeats):
        state = setup()
        start = time.perf_counter()
        run(state)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def bench_event_throughput(repeats: int) -> float:
    """Schedule-and-dispatch cost of 10k timeout events."""

    def run(_):
        env = Environment()

        def proc():
            for _ in range(EVENT_COUNT):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert env.now == float(EVENT_COUNT)

    return best_of(lambda: None, run, repeats)


def bench_resource_throughput(repeats: int) -> float:
    """Acquire/release cycles through a contended FCFS resource."""

    def run(_):
        env = Environment()
        resource = Resource(env, capacity=2)

        def proc():
            for _ in range(500):
                with resource.request() as req:
                    yield req
                    yield env.timeout(0.1)

        for _ in range(4):
            env.process(proc())
        env.run()

    return best_of(lambda: None, run, repeats)


def bench_page_access_path(repeats: int) -> float:
    """End-to-end cost of the data-shipping access path (mixed hits).

    A fresh cold cluster per repeat so every measurement sees the same
    hit/miss mix as the pytest microbenchmark's single round.
    """

    def setup():
        return Cluster(SystemConfig(num_pages=500), seed=0)

    def run(cluster):
        def proc():
            for i in range(ACCESS_COUNT):
                yield from cluster.access_page(
                    i % 3, (i * 7) % 500, class_id=0
                )

        cluster.env.process(proc())
        cluster.env.run()

    return best_of(setup, run, repeats)


def bench_page_access_path_faults_idle(repeats: int) -> float:
    """The access path with an idle fault layer attached.

    An attached layer with an empty schedule adds only attribute
    checks to the hot paths (no RNG draws, no extra processes); this
    number pins that cost next to the plain ``page_access_path``.
    """
    from repro.faults import FaultInjector, FaultSchedule

    def setup():
        cluster = Cluster(SystemConfig(num_pages=500), seed=0)
        FaultInjector(cluster, FaultSchedule([])).start()
        return cluster

    def run(cluster):
        def proc():
            for i in range(ACCESS_COUNT):
                yield from cluster.access_page(
                    i % 3, (i * 7) % 500, class_id=0
                )

        cluster.env.process(proc())
        cluster.env.run()

    return best_of(setup, run, repeats)


def bench_figure2_wallclock() -> float:
    """One short fixed figure-2 run (controller + workload end to end)."""
    from repro.cluster.config import NodeParameters
    from repro.experiments.calibration import GoalRange
    from repro.experiments.figure2 import run_figure2

    config = SystemConfig(
        num_nodes=3,
        num_pages=400,
        node=NodeParameters(buffer_bytes=256 * 1024),
        observation_interval_ms=2_000.0,
    )
    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)
    start = time.perf_counter()
    run_figure2(
        config=config,
        goal_range=goal_range,
        seed=42,
        intervals=4,
        warmup_ms=4_000.0,
    )
    return time.perf_counter() - start


def _hot_access_workload(num_nodes: int):
    """Setup/run pair for the hit-dominated hot-access bench."""
    from repro.cluster.config import NodeParameters

    pages = 4_000
    n = HOT_ACCESS_COUNT

    def setup():
        return Cluster(
            SystemConfig(
                num_nodes=num_nodes,
                num_pages=pages,
                node=NodeParameters(buffer_bytes=2 * 1024 * 1024),
            ),
            seed=0,
        )

    def run(cluster):
        access_run = cluster.access_run

        def proc():
            for i in range(n):
                node = i % num_nodes
                yield from access_run(
                    node, ((node * 117 + i * 13) % pages,), 0
                )

        cluster.env.process(proc())
        cluster.env.run()

    return setup, run


def bench_hot_access(num_nodes: int, repeats: int) -> float:
    """Hit-dominated page accesses on a ``num_nodes``-node cluster.

    2 MB buffers over a 4000-page database keep most accesses local
    once warm, so this isolates the per-access bookkeeping (heat,
    benefit repricing, directory) from disk and network service times.
    """
    setup, run = _hot_access_workload(num_nodes)
    return best_of(setup, run, repeats)


def _mixed_access_workload(num_pages: int):
    """Setup/run pair for the growing-database mixed bench."""
    n = MIXED_ACCESS_COUNT
    nodes = 32

    def setup():
        return Cluster(
            SystemConfig(num_nodes=nodes, num_pages=num_pages), seed=0
        )

    def run(cluster):
        access_run = cluster.access_run

        def proc():
            for i in range(n):
                yield from access_run(
                    i % nodes, ((i * 7) % num_pages,), 0
                )

        cluster.env.process(proc())
        cluster.env.run()

    return setup, run


def bench_mixed_access(num_pages: int, repeats: int) -> float:
    """Default-size buffers over a ``num_pages``-page database (32 nodes).

    Grows the database at fixed cache size, so the miss rate — and
    with it eviction/repricing and directory churn — rises with
    ``num_pages``; past the point where every access misses (32k pages
    and up) the curve isolates how access cost scales with the *size*
    of the hot-state structures.
    """
    setup, run = _mixed_access_workload(num_pages)
    return best_of(setup, run, repeats)


def _working_set_workload(num_pages: int):
    """Setup/run pair for the fixed-working-set sweep.

    Always touches :data:`WORKING_SET_PAGES` distinct pages — strided
    across the id space so they hit every region of the columns — while
    the *database* (and with it the directory, heat, and pool keyspace)
    grows to ``num_pages``.  Hit/miss mix is therefore identical in
    every row, and any µs/access growth measures pure data-structure
    scaling: the property the columnar layout is meant to flatten.
    """
    n = MIXED_ACCESS_COUNT
    nodes = 32
    stride = num_pages // WORKING_SET_PAGES

    def setup():
        return Cluster(
            SystemConfig(num_nodes=nodes, num_pages=num_pages), seed=0
        )

    def run(cluster):
        access_run = cluster.access_run

        def proc():
            for i in range(n):
                yield from access_run(
                    i % nodes,
                    (((i * 7) % WORKING_SET_PAGES) * stride,),
                    0,
                )

        cluster.env.process(proc())
        cluster.env.run()

    return setup, run


def bench_working_set(num_pages: int, repeats: int) -> float:
    """Fixed 8k-page working set over a ``num_pages``-page database."""
    setup, run = _working_set_workload(num_pages)
    return best_of(setup, run, repeats)


def traced_peak(setup, run) -> int:
    """Peak tracemalloc bytes of one fresh ``run(setup())``.

    Runs *after* the timing repeats (tracemalloc instruments every
    allocation, roughly doubling runtime), so the timed numbers stay
    clean while each row still reports its memory high-water mark.
    """
    import tracemalloc

    state = setup()
    tracemalloc.start()
    run(state)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_heat_memory(page_count: int) -> int:
    """Peak bytes to heat-track ``page_count`` pages (two accesses, k=2).

    One local tracker plus the global registry, the per-node pairing
    every big-database simulation carries.  Deterministic, so no
    repeats: allocation sizes do not vary between runs.
    """
    import tracemalloc

    from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker

    tracemalloc.start()
    tracker = HeatTracker()
    registry = GlobalHeatRegistry()
    for page in range(page_count):
        tracker.record(page, 1.0)
        tracker.record(page, 2.0)
        registry.record(page, 1.0)
        registry.record(page, 2.0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def build_scaling_report(repeats: int, quick: bool = False) -> dict:
    benchmarks = {}

    def record(name, workload, accesses):
        setup, run = workload
        seconds = best_of(setup, run, repeats)
        entry = {
            "seconds": round(seconds, 6),
            "us_per_access": round(seconds / accesses * 1e6, 2),
            "tracemalloc_peak_bytes": traced_peak(setup, run),
        }
        baseline = SCALING_BASELINE.get(name)
        if baseline is not None:
            entry["baseline_seconds"] = baseline
            entry["speedup"] = round(baseline / seconds, 2)
        benchmarks[name] = entry

    hot_nodes = QUICK_HOT_NODE_COUNTS if quick else HOT_NODE_COUNTS
    mixed_pages = (
        QUICK_MIXED_PAGE_COUNTS if quick else MIXED_PAGE_COUNTS
    )
    tables = (
        QUICK_WORKING_SET_TABLES if quick else WORKING_SET_TABLES
    )
    heat_pages = QUICK_HEAT_PAGE_COUNTS if quick else HEAT_PAGE_COUNTS

    for nodes in hot_nodes:
        record(
            f"hot_access_{nodes}_nodes",
            _hot_access_workload(nodes),
            HOT_ACCESS_COUNT,
        )
    for pages in mixed_pages:
        record(
            f"mixed_access_32n_{pages}_pages",
            _mixed_access_workload(pages),
            MIXED_ACCESS_COUNT,
        )
    for pages in tables:
        record(
            f"working_set_32n_{pages}_pages",
            _working_set_workload(pages),
            MIXED_ACCESS_COUNT,
        )

    # Flatness headline: the 1M-page fixed-working-set row against the
    # 8k one (same hit/miss mix, 125x the table), the quantitative pin
    # behind "roughly flat µs/access from 8k to 1M pages".
    small = benchmarks.get("working_set_32n_8000_pages")
    large = benchmarks.get("working_set_32n_1000000_pages")
    if small and large:
        benchmarks["working_set_flatness"] = {
            "ratio_1m_vs_8k": round(
                large["seconds"] / small["seconds"], 3
            ),
        }

    # Node-count flatness: per-access cost at 256 (and 512) nodes
    # against 8.  Not a pure data-structure probe like the working-set
    # ratio — growing the cluster at a fixed database turns the
    # hit-dominated 8-node profile into an all-miss, 4-hop-fetch
    # profile, so events per access rise structurally — but that is
    # exactly why it is the scaling headline: it bounds how much the
    # whole substrate (front-end, fetch chains, event recycling) lets
    # per-access cost grow with cluster size.
    small = benchmarks.get("hot_access_8_nodes")
    large = benchmarks.get("hot_access_256_nodes")
    if small and large:
        entry = {
            "node_flatness": round(
                large["us_per_access"] / small["us_per_access"], 3
            ),
        }
        huge = benchmarks.get("hot_access_512_nodes")
        if huge:
            entry["ratio_512n_vs_8n"] = round(
                huge["us_per_access"] / small["us_per_access"], 3
            )
        benchmarks["hot_access_node_flatness"] = entry

    for pages in heat_pages:
        label = "200k" if pages == 200_000 else "1m"
        name = f"heat_memory_{label}_pages"
        peak = bench_heat_memory(pages)
        entry = {"peak_bytes": peak}
        baseline_peak = SCALING_BASELINE.get(name)
        if baseline_peak is not None:
            entry["baseline_peak_bytes"] = baseline_peak
            entry["reduction"] = round(1.0 - peak / baseline_peak, 3)
        benchmarks[name] = entry

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "quick": quick,
        "benchmarks": benchmarks,
    }


def check_scaling_regression(
    report: dict,
    committed: dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list:
    """Compare a scaling report against the committed one.

    Returns ``(name, committed_us, measured_us)`` triples for every
    row whose ``us_per_access`` regressed by more than ``tolerance``
    relative to the ``committed`` report (a parsed
    ``BENCH_scaling.json``).  Rows absent from either side are
    skipped, so the quick CI subset gates only the rows it actually
    ran.

    The comparison is *shape-based*: with three or more comparable
    rows, every measured value is first normalized by the median
    measured/committed ratio across all rows.  A uniformly slower (or
    faster) machine shifts every row by the same factor and cancels
    out of the normalized comparison, while a single workload that
    regressed algorithmically barely moves the median and is caught —
    the gate tests the scaling *surface*, not the machine.  With fewer
    than three comparable rows there is no meaningful median, so the
    comparison falls back to absolute values.
    """
    committed = committed["benchmarks"]
    rows = []
    for name, entry in report["benchmarks"].items():
        measured = entry.get("us_per_access")
        reference = committed.get(name, {}).get("us_per_access")
        if measured is None or reference is None:
            continue
        rows.append((name, reference, measured))
    calibration = 1.0
    if len(rows) >= 3:
        ratios = sorted(m / r for _, r, m in rows)
        mid = len(ratios) // 2
        calibration = (
            ratios[mid] if len(ratios) % 2
            else (ratios[mid - 1] + ratios[mid]) / 2.0
        )
    failures = []
    for name, reference, measured in rows:
        if measured > reference * calibration * (1.0 + tolerance):
            failures.append((name, reference, measured))
    return failures


def bench_goal_sweep(points: int, runner: str) -> float:
    """Wall-clock of one figure-2 goal sweep at ``jobs=1``.

    Short measured horizon against a long warm-up (4 intervals of 2 s
    vs. 20 s), the regime the warm-state fork server targets: cold pays
    ``points`` warm-ups, fork pays one per replicate.  ``jobs=1`` so
    the comparison isolates warm-up amortization from multi-core
    speedup — the two compose.
    """
    from repro.cluster.config import NodeParameters
    from repro.experiments.calibration import GoalRange
    from repro.experiments.figure2 import run_goal_sweep

    config = SystemConfig(
        num_nodes=3,
        num_pages=400,
        node=NodeParameters(buffer_bytes=256 * 1024),
        observation_interval_ms=2_000.0,
    )
    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)
    start = time.perf_counter()
    sweep = run_goal_sweep(
        points=points,
        seed=42,
        intervals=4,
        config=config,
        goal_range=goal_range,
        warmup_ms=20_000.0,
        jobs=1,
        runner=runner,
    )
    elapsed = time.perf_counter() - start
    assert sweep.runner == runner and len(sweep.points) == points
    return elapsed


def build_sweep_report() -> dict:
    """Cold vs. forked wall-clock for figure-2 goal sweeps."""
    benchmarks = {}
    for points in (4, 12):
        cold = bench_goal_sweep(points, "cold")
        forked = bench_goal_sweep(points, "fork")
        benchmarks[f"goal_sweep_{points}_points"] = {
            "points": points,
            "cold_seconds": round(cold, 6),
            "fork_seconds": round(forked, 6),
            "speedup": round(cold / forked, 2),
        }
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": 1,
        "benchmarks": benchmarks,
    }


def _sweep_bench_config():
    """The quick sweep-bench system shared by --sweep and --analytic."""
    from repro.cluster.config import NodeParameters
    from repro.experiments.calibration import GoalRange

    config = SystemConfig(
        num_nodes=3,
        num_pages=400,
        node=NodeParameters(buffer_bytes=256 * 1024),
        observation_interval_ms=2_000.0,
    )
    goal_range = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)
    return config, goal_range


def build_analytic_report(grid: int = 1_000) -> dict:
    """Analytic fast-path cost: grid solves + prescreened-sweep speedup.

    Three layers of numbers:

    - ``grid_*``: wall clock of classifying a ``grid``-point goal grid
      with the MVA solver alone (the quick sweep-bench system and the
      paper's default system) — the ms-per-analytic-point headline.
    - ``goal_sweep_brute_12``: a 12-point unscreened forked sweep,
      measured; its per-point rate extrapolates to the
      ``grid``-point brute-force cost (clearly labelled — nobody runs
      a 1000-point brute sweep to benchmark it).
    - ``goal_sweep_prescreened``: the same sweep with
      ``prescreen=grid``, measured end to end: dense analytic grid,
      frontier extraction, simulation of only the selected points.
    """
    from repro.analytic.frontier import prescreen_goals
    from repro.experiments.figure2 import run_goal_sweep, sweep_goals
    from repro.experiments.runner import default_workload

    benchmarks = {}
    quick_config, goal_range = _sweep_bench_config()
    goals = sweep_goals(goal_range, grid)

    for name, config in (
        ("quick_3n_400p", quick_config),
        ("default_3n_2000p", SystemConfig()),
    ):
        workload = default_workload(config)
        start = time.perf_counter()
        report = prescreen_goals(config, workload, goals)
        elapsed = time.perf_counter() - start
        benchmarks[f"grid_{grid}_{name}"] = {
            "grid": report.grid_size,
            "frontier": report.frontier_size,
            "mva_solves": report.solves,
            "seconds": round(elapsed, 6),
            "ms_per_analytic_point": round(
                elapsed * 1000.0 / report.grid_size, 4
            ),
            "regimes": report.regime_counts(),
        }

    brute_points = 12
    start = time.perf_counter()
    brute = run_goal_sweep(
        points=brute_points, seed=42, intervals=4, config=quick_config,
        goal_range=goal_range, warmup_ms=20_000.0, jobs=1, runner="fork",
    )
    brute_seconds = time.perf_counter() - start
    assert len(brute.points) == brute_points

    start = time.perf_counter()
    screened = run_goal_sweep(
        seed=42, intervals=4, config=quick_config,
        goal_range=goal_range, warmup_ms=20_000.0, jobs=1,
        runner="fork", prescreen=grid,
    )
    screened_seconds = time.perf_counter() - start
    simulated = len(screened.points)

    extrapolated = brute_seconds / brute_points * grid
    benchmarks["goal_sweep_brute_12"] = {
        "points": brute_points,
        "seconds": round(brute_seconds, 6),
        f"extrapolated_{grid}_point_seconds": round(extrapolated, 3),
    }
    benchmarks["goal_sweep_prescreened"] = {
        "grid": grid,
        "simulated_points": simulated,
        "simulated_fraction": round(simulated / grid, 4),
        "analytic_seconds": round(
            screened.prescreen.solver_ms / 1000.0, 6
        ),
        "seconds": round(screened_seconds, 6),
        "speedup_vs_extrapolated_brute": round(
            extrapolated / screened_seconds, 2
        ),
    }
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": 1,
        "benchmarks": benchmarks,
    }


def bench_page_access_telemetry(attached: bool, repeats: int) -> float:
    """The data-shipping access path with telemetry off or attached.

    ``attached=False`` measures the disabled cost: the hot paths pay
    one ``None`` attribute check per access, nothing else.
    ``attached=True`` wires a full metrics/trace pipeline to the
    cluster, so every access records a counter and a latency
    histogram sample.
    """

    def setup():
        cluster = Cluster(SystemConfig(num_pages=500), seed=0)
        if attached:
            from repro.telemetry import attach_cluster

            attach_cluster(cluster)
        return cluster

    def run(cluster):
        def proc():
            for i in range(ACCESS_COUNT):
                yield from cluster.access_page(
                    i % 3, (i * 7) % 500, class_id=0
                )

        cluster.env.process(proc())
        cluster.env.run()

    return best_of(setup, run, repeats)


def bench_figure2_telemetry(enabled: bool) -> float:
    """Best-of-3 wall clock of the short figure-2 run, on or off.

    With ``enabled`` the module-level flag arms the full pipeline
    (metrics + trace, no file exports), the way ``--telemetry``
    instruments a real experiment run.
    """
    import repro.telemetry as telemetry_mod

    best = float("inf")
    for _ in range(3):
        if enabled:
            telemetry_mod.enable()
        try:
            best = min(best, bench_figure2_wallclock())
        finally:
            telemetry_mod.disable()
    return best


def _figure2_live_once(streaming: bool) -> float:
    """One telemetry-enabled figure-2 run, optionally live-streamed.

    The streaming side reproduces what ``--live-port`` arms: a
    :class:`~repro.telemetry.live.TelemetryBus` installed via the
    module hook (so the run wires a snapshot sampler) plus a consumer
    thread draining its subscription, the way the HTTP service pumps
    a connected dashboard.
    """
    import threading

    import repro.telemetry as telemetry_mod
    from repro.telemetry import live as live_mod
    from repro.telemetry.live import TelemetryBus

    drainer = None
    stop = threading.Event()
    if streaming:
        bus = TelemetryBus()
        live_mod.install(bus)
        sub = bus.subscribe()

        def drain():
            while not stop.is_set():
                if sub.get(timeout=0.05) is None and sub.closed:
                    return

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
    telemetry_mod.enable()
    try:
        return bench_figure2_wallclock()
    finally:
        telemetry_mod.disable()
        if streaming:
            live_mod.uninstall()
            stop.set()
            bus.close()
            drainer.join(timeout=2.0)


def bench_figure2_live(repeats: int):
    """Interleaved best-of pair: (plain telemetry, live-streamed).

    Alternating the two sides within each repeat keeps slow drifts
    (thermal, cache, scheduler) from landing on one side only — the
    run is short enough that sequential best-of-3 swings ±5 %, far
    more than the effect being measured.
    """
    base = streamed = float("inf")
    for _ in range(max(repeats, 3)):
        base = min(base, _figure2_live_once(False))
        streamed = min(streamed, _figure2_live_once(True))
    return base, streamed


def build_live_report(repeats: int) -> dict:
    """Live-streaming overhead: bus + subscriber vs. plain telemetry.

    Both sides run the same telemetry-enabled short figure-2 run
    interleaved in the same process, so the ratio isolates exactly
    what live streaming adds: the trace listener, periodic metric
    snapshots, and the bounded-queue hand-off to a draining
    subscriber thread.  The headline is ``overhead_fraction`` against
    the ≤ 2 % target.
    """
    base, streamed = bench_figure2_live(repeats)
    overhead = streamed / base - 1.0
    benchmarks = {
        "figure2_live_baseline": {
            "seconds": round(base, 6),
        },
        "figure2_live_streaming": {
            "seconds": round(streamed, 6),
            "overhead_fraction": round(overhead, 4),
            "target_fraction": LIVE_STREAM_TARGET,
            "within_target": overhead <= LIVE_STREAM_TARGET,
        },
    }
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def build_telemetry_report(repeats: int) -> dict:
    """Telemetry overhead: off must be free, on must stay cheap.

    Off and on are measured interleaved in the same process so machine
    noise hits both sides equally; the headline numbers are the ratios,
    not the absolute seconds.  Three levels:

    - ``event_throughput``: the kernel control.  Telemetry has no
      event-loop hooks, so disabled *and* enabled must both match the
      substrate baseline.
    - ``page_access_*``: the worst-case microcost — a hit-dominated
      access path doing almost no other work, so the per-access
      counter + histogram sample shows at full relative size.
    - ``figure2_short_*``: the end-to-end cost of a fully enabled
      pipeline on a real controller run, the number ``--telemetry``
      users actually pay.
    """
    import repro.telemetry as telemetry_mod

    events_off = bench_event_throughput(repeats)
    telemetry_mod.enable()
    try:
        events_on = bench_event_throughput(repeats)
    finally:
        telemetry_mod.disable()
    off = bench_page_access_telemetry(False, repeats)
    on = bench_page_access_telemetry(True, repeats)
    fig_off = bench_figure2_telemetry(False)
    fig_on = bench_figure2_telemetry(True)
    event_baseline = BASELINE_SECONDS["event_throughput"]
    benchmarks = {
        "event_throughput_disabled": {
            "seconds": round(events_off, 6),
            "ops_per_s": round(EVENT_COUNT / events_off),
            "baseline_seconds": event_baseline,
            "vs_baseline": round(events_off / event_baseline, 3),
        },
        "event_throughput_enabled": {
            "seconds": round(events_on, 6),
            "ops_per_s": round(EVENT_COUNT / events_on),
            "baseline_seconds": event_baseline,
            "vs_baseline": round(events_on / event_baseline, 3),
            "vs_disabled": round(events_on / events_off, 3),
        },
        "page_access_telemetry_off": {
            "seconds": round(off, 6),
            "us_per_access": round(off / ACCESS_COUNT * 1e6, 2),
        },
        "page_access_telemetry_on": {
            "seconds": round(on, 6),
            "us_per_access": round(on / ACCESS_COUNT * 1e6, 2),
            "overhead_fraction": round(on / off - 1.0, 3),
        },
        "figure2_short_off": {"seconds": round(fig_off, 6)},
        "figure2_short_on": {
            "seconds": round(fig_on, 6),
            "overhead_fraction": round(fig_on / fig_off - 1.0, 3),
        },
    }
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def bench_control_loop(idle_faults: bool, intervals: int = 12) -> float:
    """Best-of-3 wall clock of a short feedback-loop run.

    With ``idle_faults`` an injector with an *empty* schedule is
    attached, so the controller polls the control-plane fault state
    every interval (always-zero fields, no RNG) and every hot path
    pays its fault-layer attribute check — the full idle cost of the
    control-plane fault domain, end to end.
    """
    from repro.experiments.resilience import quick_config
    from repro.experiments.runner import Simulation, default_workload
    from repro.faults import FaultSchedule

    best = float("inf")
    for _ in range(3):
        config = quick_config()
        sim = Simulation(
            config=config,
            workload=default_workload(config, goal_ms=6.0),
            seed=0,
            warmup_ms=4000.0,
            faults=FaultSchedule([]) if idle_faults else None,
        )
        start = time.perf_counter()
        sim.run(intervals=intervals)
        best = min(best, time.perf_counter() - start)
    return best


def build_faults_report(repeats: int) -> dict:
    """Idle fault-domain overhead: attached but quiet must be ~free.

    The control-plane fault domain promises that merely *having* a
    fault layer (empty schedule, no control fault ever fires) costs
    nothing measurable: hot paths pay one attribute check, the
    controller reads two always-zero fields per interval, and no
    randomness is drawn.  Both sides of each pair are measured in the
    same process run so machine noise hits them equally; the headline
    is ``overhead_fraction`` against the ≤ 2 % target.
    """
    access_off = bench_page_access_path(repeats)
    access_idle = bench_page_access_path_faults_idle(repeats)
    loop_off = bench_control_loop(False)
    loop_idle = bench_control_loop(True)
    access_overhead = access_idle / access_off - 1.0
    loop_overhead = loop_idle / loop_off - 1.0
    benchmarks = {
        "page_access_no_faults": {
            "seconds": round(access_off, 6),
            "us_per_access": round(access_off / ACCESS_COUNT * 1e6, 2),
        },
        "page_access_faults_idle": {
            "seconds": round(access_idle, 6),
            "us_per_access": round(access_idle / ACCESS_COUNT * 1e6, 2),
            "overhead_fraction": round(access_overhead, 4),
            "target_fraction": FAULTS_IDLE_TARGET,
            "within_target": access_overhead <= FAULTS_IDLE_TARGET,
        },
        "control_loop_no_faults": {
            "seconds": round(loop_off, 6),
        },
        "control_loop_faults_idle": {
            "seconds": round(loop_idle, 6),
            "overhead_fraction": round(loop_overhead, 4),
            "target_fraction": FAULTS_IDLE_TARGET,
            "within_target": loop_overhead <= FAULTS_IDLE_TARGET,
        },
    }
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def build_report(repeats: int) -> dict:
    benchmarks = {}

    def record(name, seconds, ops=None):
        entry = {"seconds": round(seconds, 6)}
        if ops is not None:
            entry["ops_per_s"] = round(ops / seconds)
        baseline = BASELINE_SECONDS.get(name)
        if baseline is not None:
            entry["baseline_seconds"] = baseline
            entry["speedup"] = round(baseline / seconds, 2)
        benchmarks[name] = entry

    record(
        "event_throughput", bench_event_throughput(repeats), EVENT_COUNT
    )
    record("resource_throughput", bench_resource_throughput(repeats))
    record(
        "page_access_path", bench_page_access_path(repeats), ACCESS_COUNT
    )
    record(
        "page_access_path_faults_idle",
        bench_page_access_path_faults_idle(repeats),
        ACCESS_COUNT,
    )
    record("figure2_short_run", bench_figure2_wallclock())

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=20,
        help="best-of repeats per microbenchmark (default 20; "
             "the scaling report defaults to 6)",
    )
    parser.add_argument(
        "--scaling", action="store_true",
        help="run the cluster-scaling bench instead of the substrate "
             f"microbenchmarks (writes {SCALING_REPORT_PATH.name})",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the warm-state fork-server sweep bench instead "
             f"(cold vs. forked goal sweeps; writes "
             f"{SWEEP_REPORT_PATH.name})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --scaling: run the CI subset (one small and one "
             "large point per row family) instead of the full sweep",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="with --scaling: after measuring, compare us_per_access "
             "against the committed BENCH_scaling.json and exit "
             f"non-zero if any row regressed more than "
             f"{REGRESSION_TOLERANCE:.0%} (the CI scaling gate)",
    )
    parser.add_argument(
        "--telemetry-overhead", action="store_true",
        help="measure the telemetry layer's cost, off vs. attached "
             f"(writes {TELEMETRY_REPORT_PATH.name})",
    )
    parser.add_argument(
        "--live-overhead", action="store_true",
        help="measure live-streaming cost (installed bus + draining "
             "subscriber vs. plain telemetry-enabled run); merges its "
             f"rows into {TELEMETRY_REPORT_PATH.name}",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="measure the idle fault-domain overhead (layer attached, "
             f"empty schedule, vs. none; writes {FAULTS_REPORT_PATH.name})",
    )
    parser.add_argument(
        "--analytic", action="store_true",
        help="measure the analytic fast path (ms per MVA grid point, "
             "frontier size, prescreened vs. brute sweep wall clock; "
             f"writes {ANALYTIC_REPORT_PATH.name})",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output path (default {REPORT_PATH.name}, or "
             f"{SCALING_REPORT_PATH.name} with --scaling, or "
             f"{SWEEP_REPORT_PATH.name} with --sweep, or "
             f"{TELEMETRY_REPORT_PATH.name} with --telemetry-overhead, "
             f"{FAULTS_REPORT_PATH.name} with --faults, or "
             f"{ANALYTIC_REPORT_PATH.name} with --analytic)",
    )
    args = parser.parse_args(argv)
    committed = None
    if args.analytic:
        report = build_analytic_report()
        out = args.out if args.out is not None else ANALYTIC_REPORT_PATH
    elif args.faults:
        report = build_faults_report(args.repeats)
        out = args.out if args.out is not None else FAULTS_REPORT_PATH
    elif args.live_overhead:
        report = build_live_report(args.repeats)
        out = (
            args.out if args.out is not None else TELEMETRY_REPORT_PATH
        )
        # The live rows ride in the telemetry report, so fold them
        # into whatever the --telemetry-overhead pass already wrote.
        if out.exists():
            prior = json.loads(out.read_text())
            merged = dict(prior.get("benchmarks", {}))
            merged.update(report["benchmarks"])
            report["benchmarks"] = merged
    elif args.telemetry_overhead:
        report = build_telemetry_report(args.repeats)
        out = (
            args.out if args.out is not None else TELEMETRY_REPORT_PATH
        )
    elif args.sweep:
        report = build_sweep_report()
        out = args.out if args.out is not None else SWEEP_REPORT_PATH
    elif args.scaling:
        repeats = args.repeats if args.repeats != 20 else 6
        # Read the committed reference before measuring: the default
        # --out overwrites the very file the gate compares against.
        committed = (
            json.loads(SCALING_REPORT_PATH.read_text())
            if args.check_regression else None
        )
        report = build_scaling_report(repeats, quick=args.quick)
        out = args.out if args.out is not None else SCALING_REPORT_PATH
    else:
        report = build_report(args.repeats)
        out = args.out if args.out is not None else REPORT_PATH
    out.write_text(json.dumps(report, indent=2) + "\n")
    emit(json.dumps(report, indent=2))
    emit(f"\nreport written to {out}")
    if args.scaling and committed is not None:
        failures = check_scaling_regression(report, committed)
        if failures:
            emit("\nscaling regression gate FAILED "
                 f"(tolerance {REGRESSION_TOLERANCE:.0%}):")
            for name, reference, measured in failures:
                emit(f"  {name}: {reference} -> {measured} us/access "
                     f"(+{measured / reference - 1.0:.1%})")
            sys.exit(1)
        emit("scaling regression gate passed "
             f"(tolerance {REGRESSION_TOLERANCE:.0%})")


if __name__ == "__main__":
    main()
