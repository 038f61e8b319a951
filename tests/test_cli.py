"""Unit tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    commands = {"table1", "figure2", "table2", "multiclass",
                "overhead", "resilience", "scaling", "all", "demo",
                "chaos", "validate-analytic", "serve"}
    for command in commands:
        args = parser.parse_args(
            [command] + (["--quick"] if command == "all" else [])
        )
        assert callable(args.func)


def test_serve_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.telemetry_dir == "telemetry-out"
    assert args.port == 8799
    assert args.host == "127.0.0.1"
    assert args.once is False


def test_live_port_flag_on_streaming_commands():
    for command in ("figure2", "multiclass", "resilience"):
        args = build_parser().parse_args([command])
        # Off by default: no service, no directory, bit-identical runs.
        assert args.live_port is None
        args = build_parser().parse_args([command, "--live-port", "0"])
        assert args.live_port == 0
    # chaos exports no telemetry, so there is nothing to follow.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--live-port", "0"])


def test_live_port_gives_the_run_a_telemetry_directory(
    capsys, tmp_path, monkeypatch
):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    main(["resilience", "--quick", "--intervals", "8",
          "--replications", "1", "--live-port", "0"])
    out = capsys.readouterr().out
    assert "live dashboard at http://127.0.0.1:" in out
    [outdir] = tmp_path.iterdir()
    assert f"telemetry directory: {outdir}" in out
    assert f"telemetry exported to {outdir}" in out
    assert (outdir / "rep0" / "snapshots.jsonl").exists()
    assert (outdir / "rep0" / "timeline.json").exists()


def test_validate_analytic_defaults():
    args = build_parser().parse_args(["validate-analytic"])
    assert args.quick is False
    assert args.seed == 0
    assert args.tolerance == 0.10
    assert args.method == "exact"
    assert args.json is None
    assert args.jobs == 1


def test_prescreen_flag_on_goal_sweeps():
    figure2 = build_parser().parse_args(
        ["figure2", "--prescreen", "1000"]
    )
    assert figure2.prescreen == 1000
    multiclass = build_parser().parse_args(
        ["multiclass", "--prescreen", "100"]
    )
    assert multiclass.prescreen == 100
    # Off by default: an un-flagged run never consults the solver.
    assert build_parser().parse_args(["figure2"]).prescreen == 0


def test_trace_knows_prescreen_experiment():
    args = build_parser().parse_args(["trace", "prescreen"])
    assert args.experiment == "prescreen"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "nonsense"])


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_defaults():
    args = build_parser().parse_args(["demo"])
    assert args.goal == 6.0
    assert args.intervals == 25


def test_table1_runs_end_to_end(capsys):
    main(["table1", "--repetitions", "2"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "50" in out  # largest node count row


def test_demo_runs_end_to_end(capsys):
    main(["demo", "--intervals", "3", "--goal", "8.0"])
    out = capsys.readouterr().out
    assert out.count("interval") == 3
    assert "dedicated=" in out


def test_scaling_defaults():
    args = build_parser().parse_args(["scaling"])
    assert args.seed == 7
    assert args.intervals == 50
    assert args.nodes == [3, 5]
    assert args.pages_per_op == [4, 8, 16]
    assert args.jobs == 1


def test_scaling_accepts_large_clusters_and_empty_axis():
    args = build_parser().parse_args(
        ["scaling", "--nodes", "16", "32", "64",
         "--pages-per-op", "--jobs", "2"]
    )
    assert args.nodes == [16, 32, 64]
    assert args.pages_per_op == []  # skips the complexity sweep
    assert args.jobs == 2


def test_resilience_defaults():
    args = build_parser().parse_args(["resilience"])
    assert args.seed == 0
    assert args.intervals == 90
    assert args.replications == 2
    assert args.faults is None
    assert not args.quick


def test_figure2_accepts_fault_spec():
    args = build_parser().parse_args(
        ["figure2", "--faults", "crash@5000:node=0"]
    )
    assert args.faults == "crash@5000:node=0"


def test_resilience_runs_end_to_end(capsys, tmp_path):
    csv = tmp_path / "res.csv"
    main([
        "resilience", "--quick", "--seed", "0", "--intervals", "16",
        "--replications", "1", "--csv", str(csv),
    ])
    out = capsys.readouterr().out
    assert "Resilience: recovery per injected fault" in out
    assert "all crashes reattained:" in out
    assert csv.exists()


def test_serve_once_runs_end_to_end(capsys, tmp_path):
    import json

    run = tmp_path / "run"
    run.mkdir()
    (run / "trace.jsonl").write_text(
        json.dumps({"kind": "interval", "t": 1000.0}) + "\n"
    )
    main(["serve", "--telemetry-dir", str(tmp_path), "--port", "0",
          "--once"])
    out = capsys.readouterr().out
    assert "serving 1 recorded run(s)" in out
    assert "dashboard: http://127.0.0.1:" in out


def test_resilience_rejects_malformed_fault_spec():
    with pytest.raises(ValueError):
        main([
            "resilience", "--quick", "--intervals", "16",
            "--replications", "1", "--faults", "explode@1",
        ])


def test_resilience_control_schedule(capsys):
    main([
        "resilience", "--quick", "--control", "--intervals", "40",
        "--replications", "1",
    ])
    out = capsys.readouterr().out
    assert "coordcrash" in out
    assert "partition" in out
    assert "all control faults reattained: True" in out


def test_chaos_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.seeds == 5
    assert args.seed == 0
    assert args.intervals == 40
    assert args.goal == 6.0
    assert args.json is None
    assert not args.quick


def test_chaos_runs_end_to_end(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    main(["chaos", "--quick", "--seeds", "1", "--json", str(path)])
    out = capsys.readouterr().out
    assert "Chaos matrix (1 seeds, 40 intervals)" in out
    assert "all seeds passed: True" in out
    assert path.exists()


#: Every subcommand's options: {command: {option: (default, choices,
#: nargs)}}, keyed by option string (by dest for positionals).  There
#: is no ``--runner``: sweeps pick fork or cold from the platform and
#: their warm keys.
SURFACE = {
    "all": {"--quick": (False, None, 0)},
    "chaos": {
        "--goal": (6.0, None, None), "--intervals": (40, None, None),
        "--jobs": (1, None, None), "--json": (None, None, None),
        "--quick": (False, None, 0),
        "--seed": (0, None, None), "--seeds": (5, None, None),
        "--warmup-ms": (10000.0, None, None),
    },
    "demo": {
        "--goal": (6.0, None, None), "--intervals": (25, None, None),
        "--seed": (1, None, None),
    },
    "figure2": {
        "--chart": (False, None, 0), "--csv": (None, None, None),
        "--faults": (None, None, None), "--intervals": (80, None, None),
        "--jobs": (1, None, None), "--live-port": (None, None, None),
        "--prescreen": (0, None, None),
        "--seed": (1, None, None), "--sweep": (0, None, None),
        "--telemetry": (None, None, None),
        "--warmup-ms": (20000.0, None, None),
    },
    "multiclass": {
        "--goal-pairs": (None, None, "*"), "--intervals": (60, None, None),
        "--jobs": (1, None, None), "--live-port": (None, None, None),
        "--prescreen": (0, None, None),
        "--telemetry": (None, None, None),
        "--warmup-ms": (20000.0, None, None),
    },
    "overhead": {
        "--intervals": (40, None, None), "--seed": (1, None, None),
    },
    "resilience": {
        "--chart": (False, None, 0), "--control": (False, None, 0),
        "--csv": (None, None, None), "--faults": (None, None, None),
        "--goal": (6.0, None, None), "--intervals": (90, None, None),
        "--jobs": (1, None, None), "--live-port": (None, None, None),
        "--quick": (False, None, 0), "--replications": (2, None, None),
        "--seed": (0, None, None),
        "--sweep-goals": (None, None, "*"),
        "--telemetry": (None, None, None),
        "--warmup-ms": (10000.0, None, None),
    },
    "scaling": {
        "--intervals": (50, None, None), "--jobs": (1, None, None),
        "--nodes": ([3, 5], None, "*"),
        "--pages-per-op": ([4, 8, 16], None, "*"),
        "--seed": (7, None, None), "--telemetry": (None, None, None),
    },
    "serve": {
        "--host": ("127.0.0.1", None, None), "--once": (False, None, 0),
        "--port": (8799, None, None),
        "--telemetry-dir": ("telemetry-out", None, None),
    },
    "table1": {"--repetitions": (50, None, None)},
    "table2": {
        "--jobs": (1, None, None), "--replications": (12, None, None),
        "--seed": (100, None, None),
    },
    "trace": {
        "--intervals": (6, None, None),
        "--out": ("telemetry-out", None, None), "--seed": (1, None, None),
        "experiment": (
            None,
            ("figure2", "multiclass", "resilience", "scaling", "prescreen"),
            None,
        ),
    },
    "validate-analytic": {
        "--jobs": (1, None, None), "--json": (None, None, None),
        "--method": ("exact", ("exact", "schweitzer", "auto"), None),
        "--quick": (False, None, 0), "--seed": (0, None, None),
        "--tolerance": (0.1, None, None),
    },
}


def _surface(parser):
    [sub] = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {}
    for command, subparser in sub.choices.items():
        options = {}
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = action.dest
            if action.option_strings:
                [key] = action.option_strings
            options[key] = (
                action.default,
                tuple(action.choices) if action.choices else None,
                action.nargs,
            )
        surface[command] = options
    return surface


def test_cli_surface_is_pinned():
    assert _surface(build_parser()) == SURFACE
