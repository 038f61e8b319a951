#!/usr/bin/env python
"""Gate: every ``src/repro`` function is entered when the program runs.

``tools/check_unreferenced.py`` reads the AST and matches by name, so a
def that only tests call passes it whenever some other def of the same
name is used.  This tool runs the program instead.  It runs each entry
of :data:`RUNS` in a child process under ``sys.setprofile`` and
records every ``src/repro`` code object that is entered:

- ``script``: a file run as ``__main__`` (the six examples);
- ``cli``: ``python -m repro`` with the given arguments (CI's quick
  commands, the trace of every experiment, the goal sweeps);
- ``pytest``: one ``benchmarks/`` module under ``--benchmark-disable``;
- ``perf``: ``perf/bench.py``'s ``measure`` for one untraced and one
  traced two-interval repetition of a ``perf/workloads.py`` workload;
- ``serve``: ``python -m repro serve --once`` and the observability
  service over a freshly traced run, with every endpoint fetched once
  over localhost.

A ``{tmp}`` in an argument is the run's own scratch directory, which
is also its working directory.  Forked sweep points and ``--jobs``
workers inherit the profile function and exit through ``os._exit``,
which skips ``atexit``; the child wraps ``os._exit`` so that every
process writes its records before it ends.

A def is every ``def`` (top-level, nested or method) under
``src/repro``, except the interface declarations: an
``@abstractmethod`` and a method of a ``Protocol`` class.  It is
entered when a code object with its file, first line (its first
decorator's, if decorated) and name ran.  A def that
no run enters fails the gate unless :data:`ALLOWED` names it with the
reason it stays; the fix is usually to delete it (with the tests that
alone reach it), or to add a cheap run that enters it.  An
``ALLOWED`` entry fails too once it is stale: its def is gone, or a
run now enters it.

Usage::

    python tools/check_reachable.py [ROOT]

Runs :data:`JOBS` children at a time, prints each run's wall time and
exits non-zero listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

#: ``path:qualname`` (path relative to ``src``) of each def no run
#: enters, mapped to the reason it stays.
ALLOWED = {
    "repro/analytic/bridge.py:_zipf_prefix":
        "the MVA bridge's hit profile of a skewed class; every prescreen "
        "and validation the CLI offers runs uniform-access classes",
    "repro/bufmgr/heat.py:GlobalHeatRegistry.__len__":
        "the only observer of how many pages hold global heat "
        "bookkeeping; the heat tests and the cluster batch parity "
        "fingerprint count them through it (ROADMAP item 10)",
    "repro/bufmgr/heat.py:GlobalHeatRegistry.pending_count":
        "the only observer of the unflushed-touch buffer; heat tests "
        "and the cluster batch parity fingerprint read it",
    "repro/bufmgr/heat.py:HeatTracker.__len__":
        "the only observer of how many pages a tracker holds; the heat "
        "churn tests bound it under forget/clear (ROADMAP item 10)",
    "repro/bufmgr/heat.py:HeatTracker.column_slots":
        "the only observer of a tracker's allocated column length; the "
        "heat churn tests bound memory growth through it",
    "repro/bufmgr/lru.py:LruPool.page_ids":
        "the pool interface's listing, called by a node restart and by "
        "the telemetry pool gauges; the replacement ablation runs LRU "
        "without either",
    "repro/bufmgr/lruk.py:LrukPool.page_ids":
        "the pool interface's listing, called by a node restart and by "
        "the telemetry pool gauges; the replacement ablation runs LRU-K "
        "without either",
    "repro/cli.py:_cmd_all":
        "`all` runs every experiment in sequence (145 s untraced even "
        "with --quick); the run set runs each experiment on its own",
    "repro/cluster/directory.py:PageDirectory._grow":
        "the directory's columns are sized to the database; only a page "
        "id beyond it grows them, which no workload the program builds "
        "draws",
    "repro/experiments/all.py:run_all":
        "the body of `all`; see repro/cli.py:_cmd_all",
    "repro/experiments/all.py:run_all.<locals>.section":
        "the body of `all`; see repro/cli.py:_cmd_all",
    "repro/experiments/convergence.py:convergence_experiment.<locals>.stop":
        "the sequential stopping rule, consulted from the second "
        "replicate on; table2 runs here with one replicate per skew, "
        "because two would double the gate's longest run to about ten "
        "minutes",
    "repro/sim/resources.py:Resource._cancel":
        "a release of a request still queued; no experiment abandons a "
        "queued request, and test_cancel_waiting_request_frees_queue "
        "covers it",
    "repro/txn/locks.py:LockManager.holds":
        "the only observer of lock ownership; the 2PL tests check that "
        "a transaction holds each lock until release_all through it",
}

#: The program runs whose union must enter every def, the longest
#: first.
RUNS = (
    ("cli", "table2", "--replications", "1"),
    ("script", "examples/compare_strategies.py"),
    ("script", "examples/evolving_workload.py"),
    ("script", "examples/fairness_variance.py"),
    ("script", "examples/oltp_dss_mix.py"),
    ("script", "examples/quickstart.py"),
    ("script", "examples/transactional_updates.py"),
    ("pytest", "benchmarks/test_ablation_replacement.py"),
    ("cli", "chaos", "--seeds", "2", "--quick", "--json",
     "{tmp}/matrix.json"),
    ("cli", "scaling", "--nodes", "64", "--pages-per-op", "--intervals",
     "8", "--jobs", "2"),
    ("cli", "figure2", "--intervals", "1"),
    ("cli", "figure2", "--intervals", "1", "--chart", "--csv",
     "{tmp}/series.csv"),
    ("cli", "figure2", "--intervals", "1", "--sweep", "2"),
    ("cli", "resilience", "--quick", "--seed", "0", "--intervals", "40",
     "--replications", "1", "--chart", "--csv", "{tmp}/series.csv"),
    ("cli", "resilience", "--quick", "--control", "--seed", "0",
     "--intervals", "40", "--replications", "1"),
    ("cli", "resilience", "--quick", "--intervals", "8",
     "--replications", "1", "--faults", "netdelay@2000:extra=0.5:dur=2000",
     "--sweep-goals", "4", "6", "--telemetry", "{tmp}/live",
     "--live-port", "0"),
    ("cli", "multiclass", "--intervals", "2", "--warmup-ms", "4000"),
    ("cli", "multiclass", "--intervals", "4", "--goal-pairs", "4:10",
     "5:12", "--prescreen", "20", "--warmup-ms", "4000"),
    ("cli", "scaling", "--nodes", "--pages-per-op", "4", "--intervals",
     "2"),
    ("cli", "trace", "figure2", "--out", "{tmp}/tel"),
    ("cli", "trace", "multiclass", "--out", "{tmp}/tel"),
    ("cli", "trace", "resilience", "--out", "{tmp}/tel"),
    ("cli", "trace", "scaling", "--out", "{tmp}/tel"),
    ("cli", "trace", "prescreen", "--out", "{tmp}/tel"),
    ("cli", "validate-analytic", "--quick", "--jobs", "2", "--json",
     "{tmp}/report.json"),
    ("cli", "demo", "--intervals", "1"),
    ("cli", "table1", "--repetitions", "2"),
    ("cli", "overhead", "--intervals", "2"),
    ("perf", "figure2"),
    ("perf", "hot-64n"),
    ("perf", "evict-16n"),
    ("perf", "multiclass-rw"),
    ("serve",),
)

#: Runs in flight at once.
JOBS = 2

SELF = os.path.realpath(__file__)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def definitions(root: str) -> dict:
    """``(path, first line, name) -> (qualname, def line)`` per def.

    ``path`` is relative to ``src``; the first line is the first
    decorator's when there is one, as in ``co_firstlineno``.
    Declarations are left out: an ``@abstractmethod`` and a method of a
    ``Protocol`` class state an interface that is never itself called.
    """
    src = os.path.join(root, "src")
    out = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, src)
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)

            def visit(node, prefix, protocol=False):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        qualname = prefix + child.name
                        if not (protocol or "abstractmethod" in map(
                                _name, child.decorator_list)):
                            first = min([child.lineno] + [
                                d.lineno for d in child.decorator_list])
                            out[(rel, first, child.name)] = (
                                qualname, child.lineno)
                        visit(child, qualname + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".",
                              "Protocol" in map(_name, child.bases))
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return out


def _child(root: str, records: str, kind: str, args) -> int:
    """Run one entry of :data:`RUNS` under the profile function."""
    import threading

    src = os.path.join(root, "src") + os.sep
    library = os.path.join(src, "repro") + os.sep
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        lines = {
            f"{os.path.relpath(code.co_filename, src)}:"
            f"{code.co_firstlineno}:{code.co_name}\n"
            for code in entered if code.co_filename.startswith(library)
        }
        path = os.path.join(records, f"{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(sorted(lines))
        entered.clear()

    real_exit = os._exit

    def _exit(status):
        dump()
        real_exit(status)

    os._exit = _exit
    os.register_at_fork(after_in_child=entered.clear)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if kind == "script":
            import runpy

            path = os.path.join(root, args[0])
            sys.argv = [path]
            runpy.run_path(path, run_name="__main__")
        elif kind == "cli":
            from repro.cli import main

            main(list(args))
        elif kind == "pytest":
            import pytest

            status = pytest.main([
                os.path.join(root, args[0]), "-q", "--benchmark-disable",
                "-p", "no:cacheprovider",
            ])
            if status != 0:
                raise SystemExit(f"pytest exit {status}")
        elif kind == "perf":
            sys.path.insert(0, os.path.join(root, "perf"))
            import bench

            # One untraced and one traced repetition: the traced one
            # reads the per-layer metrics too.
            record = bench.measure(
                args[0], seed=0, seconds=0.0, trace=True, intervals=2
            )
            if not record["correct"]:
                raise SystemExit(f"{args[0]}: {record['problems']}")
        elif kind == "serve":
            _serve()
        else:
            raise SystemExit(f"unknown run kind {kind!r}")
    finally:
        dump()
    return 0


def _serve() -> None:
    """Trace a short run, serve it and fetch every endpoint once."""
    import json
    from urllib.request import urlopen

    from repro.cli import main
    from repro.telemetry.server import LiveService

    main(["trace", "figure2", "--out", "tel", "--intervals", "2"])
    main(["serve", "--telemetry-dir", "tel", "--port", "0", "--once"])
    service = LiveService("tel").start()
    try:
        runs = json.load(urlopen(service.url + "/api/runs", timeout=60))
        for path in ("/", "/metrics", f"/api/runs/{runs['runs'][0]['id']}",
                     "/events?replay=latest&speed=0"):
            urlopen(service.url + path, timeout=60).read()
    finally:
        service.stop()


def trace(root: str, records: str) -> list:
    """Run every entry of :data:`RUNS`; return the failed runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    pending = list(enumerate(RUNS))
    running = {}
    failed = []
    while pending or running:
        while pending and len(running) < JOBS:
            index, run = pending.pop(0)
            scratch = tempfile.mkdtemp(dir=records, prefix=f"run{index}-")
            args = [a.replace("{tmp}", scratch) for a in run[1:]]
            log = open(os.path.join(scratch, "stderr.txt"), "w+b")
            proc = subprocess.Popen(
                [sys.executable, SELF, "--child", root, records, run[0]]
                + args,
                cwd=scratch, env=env, stdout=subprocess.DEVNULL,
                stderr=log,
            )
            running[proc] = (run, log, time.perf_counter())
        for proc in list(running):
            if proc.poll() is None:
                continue
            run, log, started = running.pop(proc)
            label = " ".join(run)
            sys.stdout.write(
                f"{time.perf_counter() - started:7.1f} s  {label}\n"
            )
            sys.stdout.flush()
            if proc.returncode != 0:
                log.seek(0)
                tail = log.read().decode("utf-8", "replace")[-2000:]
                failed.append(f"{label}: exit {proc.returncode}\n{tail}")
            log.close()
        time.sleep(0.05)
    return failed


def check(defs: dict, entered: set, allowed: dict) -> list:
    """``(file, line, message)`` per finding.

    ``defs`` is :func:`definitions`' result; ``entered`` holds its
    ``(path, first line, name)`` keys for the defs a run entered.
    """
    failures = []
    qualnames = {}
    for key, (qualname, line) in defs.items():
        name = f"{key[0]}:{qualname}"
        qualnames[name] = (key, line)
        if key not in entered and name not in allowed:
            failures.append((os.path.join("src", key[0]), line,
                             f"{qualname}: no run enters it"))
    for name in allowed:
        if name not in qualnames:
            failures.append((os.path.join("tools", os.path.basename(SELF)),
                             _allowed_line(name),
                             f"stale ALLOWED entry {name!r}: not defined"))
        elif qualnames[name][0] in entered:
            key, line = qualnames[name]
            failures.append((os.path.join("src", key[0]), line,
                             f"stale ALLOWED entry {name!r}: a run "
                             "enters it"))
    return sorted(failures)


def _allowed_line(name: str) -> int:
    """Line of ``name``'s ``ALLOWED`` entry in this file."""
    with open(SELF, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip().startswith(f'"{name}":'):
                return lineno
    return 0


def read_records(records: str) -> set:
    """The ``(path, first line, name)`` keys every process wrote."""
    entered = set()
    for name in os.listdir(records):
        if name.endswith(".txt"):
            with open(os.path.join(records, name), encoding="utf-8") as fh:
                for line in fh:
                    path, first, code = line.rstrip("\n").rsplit(":", 2)
                    entered.add((path, int(first), code))
    return entered


def main(argv) -> int:
    if argv[1:2] == ["--child"]:
        return _child(argv[2], argv[3], argv[4], argv[5:])
    root = os.path.realpath(argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    ))
    defs = definitions(root)
    records = tempfile.mkdtemp(prefix="check-reachable-")
    started = time.perf_counter()
    try:
        failed = trace(root, records)
        entered = read_records(records)
    finally:
        shutil.rmtree(records, ignore_errors=True)
    sys.stdout.write(
        f"{len(RUNS)} runs in {time.perf_counter() - started:.1f} s\n"
    )
    for message in failed:
        sys.stderr.write(f"run failed: {message}\n")
    failures = check(defs, entered, ALLOWED)
    if failures:
        sys.stderr.write(
            f"{len(failures)} reachability findings over the {len(defs)} "
            "src/repro defs:\n"
        )
        for rel, lineno, message in failures:
            sys.stderr.write(f"  {rel}:{lineno}: {message}\n")
    if failed or failures:
        return 1
    sys.stdout.write(f"every one of the {len(defs)} src/repro defs is "
                     "entered by a run or allowed\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
