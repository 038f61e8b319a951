#!/usr/bin/env python
"""Lint: no library definition that only tests, re-exports or prose reach.

Walks the AST of every module under ``src/repro`` and collects each
non-dunder ``def`` and ``class`` (top-level, nested and methods).  A
definition is *unreferenced* when no code in ``src/repro``, ``perf``,
``examples``, ``tools`` or ``benchmarks`` names it.  Tests do not
count: a name that only a test calls is code the program does not
run, and belongs in ``tests/`` as an oracle or not at all.

A reference is an ``ast.Name`` id or an ``ast.Attribute`` attr.
Outside ``__init__.py`` files, an ``from ... import`` alias and an
identifier-valued string constant (``getattr`` dispatch, command
tables) count too; docstrings, comments and other prose never do.
An ``__init__.py`` re-export or ``__all__`` entry is not a reference.
Nor is a reference inside the definition's own body, or inside the
body of a definition that is itself unreferenced: the scan repeats
until no more definitions drop out, so a helper that only dead code
calls is flagged with it.

``python -m repro`` (``repro/__main__.py``) is the one entry point: an
``if __name__ == "__main__":`` block anywhere else in ``src/repro`` is
a finding, and references inside one do not count.

Matching is by name, not by type, so a method that shares its name
with an attribute of another type (``copy``, ``load``) passes once
either is used.  Other definitions of the same name count as well:
two classes' ``touch`` methods keep each other alive when one is
called through a base-class reference.

Each allow-list entry carries the reason the name stays without a
program reference: a stdlib override called by its framework, or a
test-only hook that observes behaviour no program name exposes.  An
entry that is no longer needed, because the name is gone or the
program now reaches it, is itself a finding.

Usage::

    python tools/check_unreferenced.py [ROOT]

Exits non-zero listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import os
import sys

#: Names allowed without a program reference, mapped to the reason.
ALLOWED = {
    "do_GET":
        "http.server.BaseHTTPRequestHandler dispatches GET requests to it",
    "log_message":
        "BaseHTTPRequestHandler override that silences request logging",
    "column_slots":
        "the only observer of HeatTracker's allocated column length; the "
        "heat churn tests bound memory growth under forget/clear "
        "through it",
    "holds":
        "LockManager's only observer of lock ownership; the 2PL tests "
        "and the strict-2PL property test check that a transaction "
        "holds each lock until release_all through it",
    "pending_count":
        "GlobalHeatRegistry's only observer of the unflushed-touch "
        "buffer; heat tests and the cluster batch parity fingerprint "
        "check the buffer's flush behaviour through it",
}

#: Directories (relative to the root) whose code counts as a reference.
REFERENCE_DIRS = ("src/repro", "perf", "examples", "tools", "benchmarks")

#: The one module allowed an ``if __name__ == "__main__":`` block.
ENTRY_POINT = os.path.join("src", "repro", "__main__.py")

SELF = os.path.realpath(__file__)


def _python_files(root: str, rel_dir: str):
    top = os.path.join(root, rel_dir)
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _is_main_guard(node) -> bool:
    """``if __name__ == "__main__":`` (either operand order)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    sides = (test.left, test.comparators[0])
    return (
        any(isinstance(s, ast.Name) and s.id == "__name__" for s in sides)
        and any(isinstance(s, ast.Constant) and s.value == "__main__"
                for s in sides)
    )


def _span(node):
    first = min([node.lineno] + [d.lineno for d in getattr(
        node, "decorator_list", ())])
    return first, node.end_lineno


def scan(path: str, init: bool, skip_guards: bool):
    """Return ``(defs, refs, guards)`` for one module.

    ``defs``: ``(name, lineno, first, last)`` per non-dunder def/class.
    ``refs``: ``(name, lineno)`` per reference (outside ``__main__``
    guards when ``skip_guards``: a library module's guard is not an
    entry point, a script's is).
    ``guards``: line numbers of ``__main__`` guards.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    defs, refs, guards = [], [], []
    prose = set()
    skipped = set()
    for node in ast.walk(tree):
        if _is_main_guard(node):
            guards.append(node.lineno)
            if skip_guards:
                skipped.update(id(n) for n in ast.walk(node))
        elif (isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Constant)):
            prose.add(id(node.value))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                defs.append((name, node.lineno) + _span(node))
        elif isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif init:
            continue
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and node.value.isidentifier()
              and id(node) not in prose):
            refs.append((node.value, node.lineno))
    return defs, refs, guards


def _allowed_line(name: str) -> int:
    """Line of ``name``'s ``ALLOWED`` entry in this file."""
    with open(SELF, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip().startswith(f'"{name}":'):
                return lineno
    return 0


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    defs = []  # (name, rel, lineno, first, last)
    refs = {}  # name -> [(rel, lineno)]
    failures = []  # (rel, lineno, message)
    for rel_dir in REFERENCE_DIRS:
        library = rel_dir == "src/repro"
        for path in _python_files(root, rel_dir):
            if os.path.realpath(path) == SELF:
                continue  # ALLOWED's keys name, they do not reference
            rel = os.path.relpath(path, root)
            init = os.path.basename(path) == "__init__.py"
            stray = library and rel != ENTRY_POINT
            file_defs, file_refs, guards = scan(path, init, stray)
            if library:
                defs.extend((name, rel, *rest) for name, *rest in file_defs)
                if stray:
                    failures.extend(
                        (rel, lineno, 'if __name__ == "__main__": block '
                         f"(the one entry point is {ENTRY_POINT})")
                        for lineno in guards
                    )
            for name, lineno in file_refs:
                refs.setdefault(name, []).append((rel, lineno))

    def inside(ref, d):
        return ref[0] == d[1] and d[3] <= ref[1] <= d[4]

    dead = []

    def referenced(d) -> bool:
        """Named outside its own body and outside every dead def."""
        return any(
            not inside(ref, d) and not any(inside(ref, x) for x in dead)
            for ref in refs.get(d[0], ())
        )

    changed = True
    while changed:
        changed = False
        for d in defs:
            if d[0] not in ALLOWED and d not in dead and not referenced(d):
                dead.append(d)
                changed = True
    failures.extend((rel, lineno, name) for name, rel, lineno, _, _ in dead)

    tool = os.path.join("tools", os.path.basename(SELF))
    for name in ALLOWED:
        mine = [d for d in defs if d[0] == name]
        if not mine:
            failures.append((tool, _allowed_line(name),
                             f"stale ALLOWED entry {name!r}: not defined"))
        elif any(referenced(d) for d in mine):
            failures.append((mine[0][1], mine[0][2],
                             f"stale ALLOWED entry {name!r}: the program "
                             "references it"))

    if failures:
        sys.stderr.write(
            "definitions that no program code references "
            "(in " + ", ".join(REFERENCE_DIRS) + "):\n"
        )
        for rel, lineno, message in sorted(failures):
            sys.stderr.write(f"  {rel}:{lineno}: {message}\n")
        return 1
    sys.stdout.write(
        "every definition in src/repro is referenced by the program\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
