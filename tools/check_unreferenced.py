#!/usr/bin/env python
"""Lint: no library definition that only its own ``def`` mentions.

Walks the AST of every module under ``src/repro`` and collects each
non-dunder ``def`` and ``class`` (top-level, nested and methods).  A
definition is *unreferenced* when its name, matched as a whole word,
occurs nowhere in ``src/repro``, ``perf``, ``examples``, ``tools`` or
``benchmarks`` except on its own definition line.  Tests do not count:
a name that only a test calls is code the program does not run, and
belongs in ``tests/`` as an oracle or not at all.

The match is textual, so a name mentioned in a docstring, a string
literal (``getattr`` dispatch, CLI command tables) or a comment counts
as referenced, and so do other definitions of the same name (two
classes' ``touch`` methods reference each other).  That errs towards
keeping code; it never flags a name the program reaches.

Each allow-list entry carries the reason the name stays without a
program reference: a stdlib override called by its framework, or a
test-only hook that observes behaviour no program name exposes.

Usage::

    python tools/check_unreferenced.py [ROOT]

Exits non-zero listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import os
import re
import sys

#: Names allowed without a program reference, mapped to the reason.
ALLOWED = {
    "do_GET":
        "http.server.BaseHTTPRequestHandler dispatches GET requests to it",
    "log_message":
        "BaseHTTPRequestHandler override that silences request logging",
    "pending_count":
        "GlobalHeatRegistry's only observer of the unflushed-touch "
        "buffer; heat tests and the cluster batch parity fingerprint "
        "check the buffer's flush behaviour through it",
}

#: Directories (relative to the root) whose text counts as a reference.
REFERENCE_DIRS = ("src/repro", "perf", "examples", "tools", "benchmarks")


def _python_files(root: str, rel_dir: str):
    top = os.path.join(root, rel_dir)
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def definitions(path: str):
    """Yield ``(name, lineno)`` for each non-dunder def/class in a file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            yield name, node.lineno


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    texts = {}
    for rel_dir in REFERENCE_DIRS:
        for path in _python_files(root, rel_dir):
            with open(path, "r", encoding="utf-8") as fh:
                texts[path] = fh.read().splitlines()

    defs = []
    for path in _python_files(root, "src/repro"):
        for name, lineno in definitions(path):
            if name not in ALLOWED:
                defs.append((name, path, lineno))

    words = re.compile(r"\w+")
    counts = {}
    wanted = {name for name, _, _ in defs}
    for lines in texts.values():
        for line in lines:
            for word in words.findall(line):
                if word in wanted:
                    counts[word] = counts.get(word, 0) + 1

    failures = []
    for name, path, lineno in defs:
        own = len(
            [w for w in words.findall(texts[path][lineno - 1]) if w == name]
        )
        if counts.get(name, 0) <= own:
            failures.append((os.path.relpath(path, root), lineno, name))

    if failures:
        sys.stderr.write(
            "definitions with no reference outside their own def line "
            "(in " + ", ".join(REFERENCE_DIRS) + "):\n"
        )
        for rel, lineno, name in sorted(failures):
            sys.stderr.write(f"  {rel}:{lineno}: {name}\n")
        return 1
    sys.stdout.write(
        "every definition in src/repro is referenced by the program\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
