"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments plus a demo run:

- ``table1``     — coordinator CPU cost table (§5, Table 1)
- ``figure2``    — the base experiment series (§7.2, Figure 2)
- ``table2``     — convergence vs. skew (§7.3, Table 2)
- ``multiclass`` — the §7.4 sharing study
- ``overhead``   — the §7.5 overhead breakdown
- ``resilience`` — fault injection + feedback-loop recovery metrics
- ``chaos``      — randomized control-plane fault schedules with
  asserted safety/liveness properties (see docs/faults.md)
- ``all``        — everything above in sequence
- ``demo``       — a short quickstart run printing live progress
- ``trace``      — a short telemetry-instrumented run of one
  experiment (see docs/observability.md)
- ``validate-analytic`` — cross-validate the simulator against exact
  MVA on product-form-reducible configurations (see docs/analytic.md)
- ``serve``      — the live observability service: dashboard, SSE
  stream, Prometheus scrape, and run catalog over recorded telemetry

``figure2``, ``multiclass``, ``resilience``, and ``scaling`` accept
``--telemetry DIR`` to export structured traces, metrics, and a
Perfetto-loadable timeline of the run.  ``figure2``, ``multiclass``,
and ``resilience`` additionally accept ``--live-port P`` to serve the
run's telemetry directory to a browser dashboard while the run writes
it (see docs/observability.md, "Live service").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.runner import (
    DEFAULT_WARMUP_MS,
    RESILIENCE_WARMUP_MS,
)


def _note_telemetry(args) -> None:
    if getattr(args, "telemetry", None):
        print(f"telemetry exported to {args.telemetry}")


def _start_live(args):
    """Serve the command's telemetry directory when ``--live-port`` is
    given.

    The run streams into its ``--telemetry`` directory, or into a fresh
    temporary one, which then becomes the command's ``--telemetry``.
    Returns the running service (to be stopped in a finally) or None.
    """
    port = getattr(args, "live_port", None)
    if port is None:
        return None
    import tempfile

    from repro.telemetry.server import LiveService

    if args.telemetry is None:
        args.telemetry = tempfile.mkdtemp(prefix="repro-live-")
        print(f"telemetry directory: {args.telemetry}")
    service = LiveService(args.telemetry, port=port).start()
    print(f"live dashboard at {service.url} (following this run)")
    return service


def _cmd_table1(args) -> None:
    from repro.experiments import table1

    rows = table1.run_table1(repetitions=args.repetitions)
    print(table1.to_text(rows))


def _note_prescreen(report) -> None:
    if report is None:
        return
    print(
        f"prescreen: {report.grid_size} analytic points -> "
        f"{report.frontier_size} simulated "
        f"({report.solver_ms:.1f} ms, {report.solves} MVA solves)"
    )


def _cmd_figure2(args) -> None:
    from repro.experiments.figure2 import run_figure2, run_goal_sweep

    if args.sweep or args.prescreen:
        sweep = run_goal_sweep(
            points=args.sweep or 8, seed=args.seed,
            intervals=args.intervals,
            warmup_ms=args.warmup_ms, jobs=args.jobs,
            telemetry=args.telemetry, prescreen=args.prescreen or None,
        )
        _note_prescreen(sweep.prescreen)
        print(sweep.to_text())
        _note_telemetry(args)
        return
    data = run_figure2(
        seed=args.seed, intervals=args.intervals, jobs=args.jobs,
        warmup_ms=args.warmup_ms, faults=args.faults,
        telemetry=args.telemetry,
    )
    if args.chart:
        print(data.to_chart())
    else:
        print(data.to_text())
    if args.csv:
        data.save_csv(args.csv)
        print(f"series written to {args.csv}")
    print(f"satisfaction ratio: {data.satisfaction_ratio():.2f}")
    if data.p95_rt_ms is not None:
        print(f"p95 response time: {data.p95_rt_ms:.2f} ms")
    if data.quantiles_text() is not None:
        print(data.quantiles_text())
    print(f"corr(RT, dedicated): {data.rt_tracks_memory():.2f}")
    _note_telemetry(args)


def _cmd_table2(args) -> None:
    from repro.experiments import table2

    results = table2.run_table2(
        max_replications=args.replications,
        base_seed=args.seed,
        jobs=args.jobs,
    )
    print(table2.to_text(results))


def _parse_goal_pair(text: str):
    try:
        goal1, goal2 = text.split(":")
        return float(goal1), float(goal2)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected GOAL1:GOAL2 (e.g. 4:10), got {text!r}"
        )


def _cmd_multiclass(args) -> None:
    from repro.experiments.multiclass import (
        GOAL_PAIRS,
        run_goal_sweep,
        run_sharing_sweep,
    )

    if args.goal_pairs or args.prescreen:
        sweep = run_goal_sweep(
            goal_pairs=args.goal_pairs or GOAL_PAIRS,
            intervals=args.intervals, warmup_ms=args.warmup_ms,
            jobs=args.jobs,
            telemetry=args.telemetry, prescreen=args.prescreen or None,
        )
        _note_prescreen(sweep.prescreen)
        print(sweep.to_text())
        _note_telemetry(args)
        return
    result = run_sharing_sweep(
        intervals=args.intervals, jobs=args.jobs,
        warmup_ms=args.warmup_ms, telemetry=args.telemetry,
    )
    print(result.to_text())
    print(
        "k2 dedicated memory decreases with sharing: "
        f"{result.k2_dedicated_decreases()}"
    )
    _note_telemetry(args)


def _cmd_overhead(args) -> None:
    from repro.experiments.overhead import run_overhead

    print(run_overhead(seed=args.seed, intervals=args.intervals).to_text())


def _cmd_resilience(args) -> None:
    from repro.experiments.resilience import (
        control_fault_spec,
        quick_config,
        run_goal_sweep,
        run_resilience,
    )

    from repro.cluster.config import SystemConfig

    config = quick_config() if args.quick else SystemConfig()
    if args.control and args.faults is None:
        args.faults = control_fault_spec(
            args.intervals, config.observation_interval_ms, args.warmup_ms
        )
    if args.sweep_goals:
        sweep = run_goal_sweep(
            goals=args.sweep_goals,
            seed=args.seed,
            intervals=args.intervals,
            config=config,
            faults=args.faults,
            replications=args.replications,
            warmup_ms=args.warmup_ms,
            jobs=args.jobs,
            telemetry=args.telemetry,
        )
        print(sweep.to_text())
        _note_telemetry(args)
        return
    data = run_resilience(
        seed=args.seed,
        intervals=args.intervals,
        config=config,
        goal_ms=args.goal,
        faults=args.faults,
        replications=args.replications,
        warmup_ms=args.warmup_ms,
        jobs=args.jobs,
        telemetry=args.telemetry,
    )
    if args.chart:
        print(data.to_chart())
        print()
    print(data.to_text())
    if args.csv:
        data.save_csv(args.csv)
        print(f"series written to {args.csv}")
    _note_telemetry(args)


def _cmd_chaos(args) -> None:
    from repro.experiments.chaos import run_chaos
    from repro.experiments.resilience import quick_config

    matrix = run_chaos(
        seeds=args.seeds,
        base_seed=args.seed,
        intervals=args.intervals,
        config=quick_config() if args.quick else None,
        goal_ms=args.goal,
        warmup_ms=args.warmup_ms,
        jobs=args.jobs,
    )
    print(matrix.to_text())
    if args.json:
        matrix.save_json(args.json)
        print(f"matrix written to {args.json}")
    if not matrix.all_passed():
        sys.exit(1)


def _cmd_scaling(args) -> None:
    from repro.experiments.scaling import run_scaling

    print(run_scaling(
        node_counts=tuple(args.nodes),
        pages_per_op=tuple(args.pages_per_op),
        seed=args.seed,
        intervals=args.intervals,
        jobs=args.jobs,
        telemetry=args.telemetry,
    ))
    _note_telemetry(args)


def _cmd_all(args) -> None:
    from repro.experiments.all import run_all

    run_all(quick=args.quick)


def _cmd_trace(args) -> None:
    """A short, scaled-down telemetry-instrumented run.

    Uses the quick 3-node configuration (and, for figure2, a fixed
    goal range) so the run skips the slow calibration and finishes in
    seconds — the point is producing loadable telemetry artifacts, not
    paper-grade numbers.
    """
    import json
    import os

    from repro.experiments.calibration import GoalRange
    from repro.experiments.resilience import quick_config

    out = args.out
    if args.experiment == "figure2":
        from repro.experiments.figure2 import run_figure2

        run_figure2(
            seed=args.seed, intervals=args.intervals,
            config=quick_config(), goal_range=GoalRange(1, 2.0, 8.0),
            warmup_ms=4000.0, telemetry=out,
        )
    elif args.experiment == "prescreen":
        from repro.experiments.figure2 import run_goal_sweep

        run_goal_sweep(
            seed=args.seed, intervals=args.intervals,
            config=quick_config(), goal_range=GoalRange(1, 2.0, 8.0),
            warmup_ms=4000.0, telemetry=out, prescreen=100,
        )
    elif args.experiment == "multiclass":
        from repro.experiments.multiclass import (
            doubled_cache_config,
            run_sharing_point,
        )

        run_sharing_point(
            0.5, seed=args.seed,
            config=doubled_cache_config(quick_config()),
            intervals=args.intervals,
            tail=max(args.intervals // 2, 1),
            warmup_ms=4000.0, telemetry=out,
        )
    elif args.experiment == "resilience":
        from repro.experiments.resilience import run_resilience

        run_resilience(
            seed=args.seed, intervals=max(args.intervals, 8),
            config=quick_config(), replications=1,
            warmup_ms=4000.0, telemetry=out,
        )
    else:  # scaling
        from repro.experiments.scaling import run_scaling

        run_scaling(
            node_counts=(3,), pages_per_op=(),
            seed=args.seed, intervals=args.intervals,
            telemetry=out,
        )

    # Summarize what was produced: record kinds of the (merged or
    # single-run) trace, then every artifact path.
    artifacts = []
    trace_files = []
    for dirpath, dirnames, files in os.walk(out):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            artifacts.append(path)
            if name == "trace.jsonl":
                trace_files.append(path)
    top_trace = os.path.join(out, "trace.jsonl")
    if top_trace in trace_files:
        # The merged trace already contains every point's records.
        trace_files = [top_trace]
    kinds = {}
    for path in trace_files:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                kind = json.loads(line)["kind"]
                kinds[kind] = kinds.get(kind, 0) + 1
    print(f"telemetry exported to {out}")
    for kind in sorted(kinds):
        print(f"  {kind}: {kinds[kind]}")
    pool_high = None
    for path in artifacts:
        if os.path.basename(path) != "metrics.json":
            continue
        with open(path, "r", encoding="utf-8") as fh:
            for entry in json.load(fh).get("metrics", ()):
                if entry.get("name") == "repro_event_pool_high_water":
                    value = int(entry["value"])
                    if pool_high is None or value > pool_high:
                        pool_high = value
    if pool_high is not None:
        print(f"engine event pool high water: {pool_high}")
    print(f"artifacts ({len(artifacts)} files):")
    for path in artifacts:
        print(f"  {path}")


def _cmd_validate_analytic(args) -> None:
    """Cross-validate simulated steady state against exact MVA."""
    import json

    from repro.analytic.validate import run_validation

    report = run_validation(
        quick=args.quick, seed=args.seed, jobs=args.jobs,
        tolerance=args.tolerance, method=args.method,
    )
    print(report.to_text())
    print(f"worst relative error: {report.worst_error():.1%}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}")
    if not report.all_passed():
        sys.exit(1)


def _cmd_serve(args) -> None:
    """Run the observability service over recorded telemetry."""
    from repro.telemetry.server import LiveService

    service = LiveService(
        args.telemetry_dir, port=args.port, host=args.host
    ).start()
    runs = service.runs()
    print(f"serving {len(runs)} recorded run(s) from {args.telemetry_dir}")
    for info in runs:
        span = (
            f"{(info.t_max - info.t_min) / 1000.0:.1f}s sim"
            if info.t_min is not None and info.t_max is not None else "empty"
        )
        print(f"  {info.run_id}  {info.name}  "
              f"({info.records} records, {span})")
    print(f"dashboard: {service.url}/  "
          f"metrics: {service.url}/metrics  "
          f"catalog: {service.url}/api/runs")
    if args.once:
        service.stop()
        return
    import time

    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.stop()


def _cmd_demo(args) -> None:
    from repro import build_base_experiment

    sim = build_base_experiment(
        seed=args.seed, goal_ms=args.goal, warmup_ms=20_000.0
    )
    for interval in range(1, args.intervals + 1):
        sim.run(intervals=1)
        series = sim.controller.series[1]
        observed = (
            f"{series.observed_rt.values[-1]:.2f}"
            if series.observed_rt.values else "-"
        )
        flag = "ok" if series.satisfied[-1] else "  "
        print(
            f"interval {interval:>3}: rt={observed:>7} ms  "
            f"goal={sim.controller.goal_of(1):.1f} ms  "
            f"dedicated={sim.dedicated_bytes(1) // 1024:>5} KB  {flag}"
        )


def _jobs_value(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 1 (or 0 for all cores)"
        )
    return jobs


#: Flags shared by several subcommands, as ``add_argument`` keywords.
#: ``--warmup-ms`` takes its default from the subcommand: the defaults
#: differ on purpose (see the constants in repro.experiments.runner) —
#: calibration warms 3x longer than the feedback experiments and
#: resilience's scaled-down setting warms half as long.
SHARED_FLAGS = {
    "--jobs": dict(
        type=_jobs_value, default=1, metavar="N",
        help=(
            "worker processes for independent simulation runs "
            "(0 = all cores); results are identical for any value"
        ),
    ),
    "--telemetry": dict(
        metavar="DIR", default=None,
        help=(
            "export structured telemetry (JSONL trace, Prometheus "
            "metrics, Perfetto timeline) into DIR; sweeps write one "
            "subdirectory per point plus a merged trace (see "
            "docs/observability.md); off by default with zero "
            "hot-path cost"
        ),
    ),
    "--warmup-ms": dict(
        type=float, metavar="MS",
        help=(
            "simulated warm-up before the controller starts "
            "(default: %(default)g ms for this experiment)"
        ),
    ),
    "--live-port": dict(
        type=int, default=None, metavar="PORT",
        help=(
            "serve this run's telemetry directory (--telemetry, or a "
            "fresh temporary one) to the observability dashboard on "
            "localhost:PORT while the run writes it (0 picks a free "
            "port); results are bit-identical with or without the "
            "flag (see docs/observability.md)"
        ),
    ),
    "--prescreen": dict(
        type=int, default=0, metavar="N",
        help=(
            "analytic fast path: classify a dense N-point goal grid "
            "with the multiclass MVA solver (milliseconds) and "
            "simulate only the feasibility frontier — a small, "
            "budget-capped subset whose results are bit-identical to "
            "the same points of an unscreened sweep (see "
            "docs/analytic.md)"
        ),
    ),
}


def _add_shared_flags(
    parser: argparse.ArgumentParser, *options: str, warmup_ms=None
) -> None:
    """Add the named :data:`SHARED_FLAGS`; ``warmup_ms`` is this
    subcommand's ``--warmup-ms`` default."""
    for option in options:
        kwargs = dict(SHARED_FLAGS[option])
        if option == "--warmup-ms":
            kwargs["default"] = warmup_ms
        parser.add_argument(option, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Goal-oriented distributed buffer management "
            "(Sinnwell & König, ICDE 1999) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="coordinator CPU cost table")
    p.add_argument("--repetitions", type=int, default=50)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("figure2", help="base experiment series")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--intervals", type=int, default=80)
    p.add_argument("--chart", action="store_true",
                   help="render as an ASCII chart instead of a table")
    p.add_argument("--csv", metavar="PATH",
                   help="also export the series as CSV")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="inject a fault schedule (see docs/faults.md)")
    p.add_argument("--sweep", type=int, default=0, metavar="POINTS",
                   help="instead of the figure, sweep POINTS fixed "
                        "goals across the calibrated range (amortized "
                        "by the warm-state fork server)")
    _add_shared_flags(
        p, "--prescreen", "--warmup-ms", "--jobs",
        "--telemetry", "--live-port", warmup_ms=DEFAULT_WARMUP_MS,
    )
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("table2", help="convergence vs. skew")
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--replications", type=int, default=12)
    _add_shared_flags(p, "--jobs")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("multiclass", help="§7.4 sharing study")
    p.add_argument("--intervals", type=int, default=60)
    p.add_argument("--goal-pairs", type=_parse_goal_pair, nargs="*",
                   default=None, metavar="G1:G2",
                   help="instead of the sharing sweep, sweep these "
                        "(goal k1, goal k2) pairs off one warmed "
                        "simulation, e.g. --goal-pairs 3:8 4:10 5:12")
    _add_shared_flags(
        p, "--prescreen", "--warmup-ms", "--jobs",
        "--telemetry", "--live-port", warmup_ms=DEFAULT_WARMUP_MS,
    )
    p.set_defaults(func=_cmd_multiclass)

    p = sub.add_parser("overhead", help="§7.5 overhead breakdown")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--intervals", type=int, default=40)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser(
        "resilience", help="fault injection + recovery metrics"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intervals", type=int, default=90)
    p.add_argument("--replications", type=int, default=2)
    p.add_argument("--goal", type=float, default=6.0)
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault schedule (default: scaled crash/loss/"
                        "slowdown mix; see docs/faults.md)")
    p.add_argument("--control", action="store_true",
                   help="use the control-plane schedule instead "
                        "(coordinator crashes + a partition; ignored "
                        "when --faults is given)")
    p.add_argument("--quick", action="store_true",
                   help="scaled-down system for smoke runs")
    p.add_argument("--chart", action="store_true",
                   help="also render the recovery chart")
    p.add_argument("--csv", metavar="PATH",
                   help="export replicate 0's series as CSV")
    p.add_argument("--sweep-goals", type=float, nargs="*", default=None,
                   metavar="MS",
                   help="instead of one goal, sweep these goals under "
                        "the same fault schedule (amortized by the "
                        "warm-state fork server)")
    _add_shared_flags(
        p, "--warmup-ms", "--jobs", "--telemetry",
        "--live-port", warmup_ms=RESILIENCE_WARMUP_MS,
    )
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "chaos",
        help="randomized control-plane fault schedules, asserted",
    )
    p.add_argument("--seeds", type=int, default=5, metavar="N",
                   help="number of seeded chaos schedules (default: 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed the per-run seeds derive from")
    p.add_argument("--intervals", type=int, default=40)
    p.add_argument("--goal", type=float, default=6.0)
    p.add_argument("--quick", action="store_true",
                   help="scaled-down system for smoke runs")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the property matrix as JSON "
                        "(the CI resilience-matrix artifact)")
    _add_shared_flags(
        p, "--warmup-ms", "--jobs", warmup_ms=RESILIENCE_WARMUP_MS
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("scaling", help="node-count / complexity scaling")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--intervals", type=int, default=50)
    p.add_argument("--nodes", type=int, nargs="*", default=[3, 5],
                   metavar="N",
                   help="cluster sizes for the node-count sweep, e.g. "
                        "--nodes 16 32 64 (empty skips the sweep)")
    p.add_argument("--pages-per-op", type=int, nargs="*",
                   default=[4, 8, 16], metavar="P",
                   help="operation sizes for the complexity sweep "
                        "(empty skips the sweep)")
    _add_shared_flags(p, "--jobs", "--telemetry")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("all", help="every experiment in sequence")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_all)

    p = sub.add_parser("demo", help="short live quickstart run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--goal", type=float, default=6.0)
    p.add_argument("--intervals", type=int, default=25)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "trace",
        help="short telemetry-instrumented run of one experiment",
    )
    p.add_argument(
        "experiment",
        choices=("figure2", "multiclass", "resilience", "scaling",
                 "prescreen"),
        help="which experiment to trace (scaled-down quick settings; "
             "'prescreen' runs a 100-point analytically screened goal "
             "sweep and traces the prescreen record)",
    )
    p.add_argument("--out", metavar="DIR", default="telemetry-out",
                   help="export directory (default: telemetry-out)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--intervals", type=int, default=6)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="observability service over recorded telemetry exports",
    )
    p.add_argument("--telemetry-dir", metavar="DIR",
                   default="telemetry-out",
                   help="telemetry export tree to catalog and replay "
                        "(default: telemetry-out)")
    p.add_argument("--port", type=int, default=8799,
                   help="TCP port to bind (0 picks a free port; "
                        "default: 8799)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--once", action="store_true",
                   help="print the catalog and exit immediately "
                        "(smoke-test mode)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "validate-analytic",
        help="cross-validate the simulator against exact MVA",
    )
    p.add_argument("--quick", action="store_true",
                   help="shorter measured horizon for smoke runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=0.10,
                   metavar="FRAC",
                   help="acceptance tolerance on relative RT error "
                        "(default: 0.10)")
    p.add_argument("--method", choices=("exact", "schweitzer", "auto"),
                   default="exact",
                   help="MVA solver to validate against "
                        "(default: exact)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the comparison report as JSON")
    _add_shared_flags(p, "--jobs")
    p.set_defaults(func=_cmd_validate_analytic)

    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # --live-port (figure2/multiclass/resilience) serves the run's
    # telemetry directory for the command's duration; the service
    # stops when the command finishes either way.
    service = _start_live(args)
    try:
        args.func(args)
    finally:
        if service is not None:
            service.stop()

