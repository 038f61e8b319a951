#!/usr/bin/env python
"""Lint: no bare ``print(`` calls inside the library.

Experiment and library code must report through the telemetry layer
(:mod:`repro.telemetry`) or the sanctioned stdout path
(:func:`repro.experiments.reporting.emit`); stray prints bypass both
and break consumers that parse the CLI output.  The check walks the
AST — not the raw text — so ``print`` mentioned in docstrings or
comments does not trip it.

Covers ``src/repro``, ``benchmarks``, and ``tools``.  Each allow-list
entry carries the reason it is a sanctioned stdout boundary, printed
when an offending file is *almost* allowed (same basename) to make
accidental near-misses debuggable; the lint itself writes through
``sys.stdout`` directly, which the AST check does not flag —
``print`` is the lint target because it is the idiom stray debug
output arrives in.  An entry whose file is gone or no longer prints
is itself a finding, so the allow-list cannot outlive its reason.

Usage::

    python tools/check_no_prints.py [SRC_DIR]

Exits non-zero listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import os
import sys

#: Paths (relative to the package root) where print calls are allowed,
#: mapped to the reason each one is a sanctioned stdout boundary.
ALLOWED = {
    os.path.join("src", "repro", "cli.py"):
        "the CLI is the stdout boundary",
}


def find_prints(path: str):
    """Yield line numbers of bare ``print(...)`` calls in one file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield node.lineno


def _allowed_line(rel: str) -> int:
    """Line of the ``ALLOWED`` entry for ``rel`` in this file."""
    parts = ", ".join(f'"{part}"' for part in rel.split(os.sep))
    with open(os.path.abspath(__file__), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if parts in line:
                return lineno
    return 0


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    roots = [
        os.path.join(root, "src", "repro"),
        os.path.join(root, "benchmarks"),
        os.path.join(root, "tools"),
    ]
    failures = []
    printing = set()
    for tree in roots:
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                for lineno in find_prints(path):
                    if rel in ALLOWED:
                        printing.add(rel)
                    else:
                        failures.append((rel, lineno, ""))
    tool = os.path.join("tools", os.path.basename(__file__))
    for rel in ALLOWED:
        if rel not in printing:
            failures.append((tool, _allowed_line(rel),
                             f"  (stale ALLOWED entry {rel}: it no "
                             "longer prints)"))
    if failures:
        sys.stderr.write(
            "bare print() calls found (use repro.telemetry or "
            "repro.experiments.reporting.emit instead):\n"
        )
        by_basename = {
            os.path.basename(allowed): (allowed, reason)
            for allowed, reason in ALLOWED.items()
        }
        for rel, lineno, note in failures:
            hint = by_basename.get(os.path.basename(rel))
            if not note and hint is not None and hint[0] != rel:
                note = f"  (only {hint[0]} is allowed: {hint[1]})"
            sys.stderr.write(f"  {rel}:{lineno}{note}\n")
        return 1
    sys.stdout.write(
        "no stray print() calls in src/repro, benchmarks, tools\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
