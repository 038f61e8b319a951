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

A defaulted parameter of a ``src/repro`` def is a finding too when no
program call passes it: an option only tests set, or nobody does, is
a constant in disguise.  Both ``__init__`` options and function
options are checked; dunder methods other than ``__init__`` are exempt,
because their callers never name them.

- ``__init__`` options.  A call passes the parameter when it names the
  class (``Cls(...)``, ``mod.Cls(...)``, or ``cls(...)`` inside the
  class) and supplies the parameter by keyword, by position, or
  through ``*args``/``**kwargs``.  A call naming a subclass without its
  own ``__init__`` counts for the nearest base that has one, and so
  does ``super().__init__(...)`` or ``Base.__init__(self, ...)`` inside
  a subclass.  Such findings read ``Class.param``.
- Function options, of plain functions and methods alike.  A call
  passes the parameter when it names the def (``f(...)``,
  ``obj.f(...)``, or ``functools.partial(f, ...)``) and supplies the
  parameter by keyword, by position (after a method's ``self`` or
  ``cls``), or through ``*args``/``**kwargs``.  Such findings read
  ``name.param``.  Matching is by name here too, so every def of one
  name shares its callers: a call that passes an argument to one
  ``utilization`` clears that parameter of every ``utilization``, and
  a ``**kwargs`` spread into one ``run_goal_sweep`` would clear every
  parameter of all three.

Findings cascade: once a caller stops passing a parameter through, the
callee's parameter is flagged on the next run.

Each allow-list entry carries the reason the name stays without a
program reference: a stdlib override called by its framework, a
test-only hook that observes behaviour no program name exposes, or
(as ``Class.param`` or ``name.param``) a parameter that tests set on
purpose or a deployment setting.  An entry that is no longer needed,
because the name is gone or the program now reaches it, is itself a
finding.

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
    "Coordinator.shrink_damping":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4); the damping tests vary it",
    "Coordinator.settle_intervals":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4); the settle tests vary it",
    "Coordinator.tolerance":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4); coordinator tests pass their own band",
    "GoalTolerance.low_side_slack":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4); the tolerance tests vary it",
    "MeasureWindow.smoothing":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4); the smoothing tests vary it",
    "NodeDispatcher.block":
        "the block-boundary parity tests shrink the block to cross "
        "refills at every length",
    "TraceReplayer.sink":
        "test hook: replay tests observe arrivals and completions "
        "through their own sink",
    "TransactionManager.vote_hook":
        "test hook: 2PC tests force a participant to vote abort",
    "regularize_plane.min_ratio":
        "stability guard kept settable for the guard-ablation matrix "
        "(ROADMAP item 4), like Coordinator.shrink_damping",
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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
            if not _dunder(name):
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


def _defaulted(fn, skip) -> list:
    """``(param, index)`` per defaulted parameter of a def.

    ``index`` is the position after the ``skip`` leading parameters
    (``self``/``cls`` of a method) a call does not spell out (None:
    keyword-only).
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional)
           if i >= first and i >= skip]
    out.extend((arg.arg, None)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None)
    return out


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def scan_params(path: str):
    """Return ``(classes, params, calls)`` for one module.

    ``classes``: name -> (base names, defines ``__init__``, the base
    whose ``__init__`` it forwards its own ``*args``/``**kwargs`` to).
    ``params``: ``(owner, param, index, lineno)`` per defaulted
    parameter of an ``__init__`` (``owner`` is its class) or of any
    other non-dunder def (``owner`` is the def's name).
    ``calls``: ``(callee, positional, keywords, spread)`` per call that
    names a class or def, ``functools.partial(callee, ...)`` included:
    the positional argument count, the keyword names, and whether
    ``*args``/``**kwargs`` spread into it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    classes, params, calls = {}, [], []

    def visit(node, owner, init, method):
        if isinstance(node, ast.ClassDef):
            own = next((n for n in node.body
                        if isinstance(n, ast.FunctionDef)
                        and n.name == "__init__"), None)
            classes[node.name] = (
                [b for b in map(_name_of, node.bases) if b],
                own is not None, None,
            )
            if own is not None:
                params.extend((node.name, name, index, own.lineno)
                              for name, index in _defaulted(own, 1))
            owner, init = node, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if owner is not None and node.name == "__init__":
                init = node
            elif not _dunder(node.name):
                # A call leaves out a method's ``self``/``cls``.
                skip = int(method and not any(
                    _name_of(d) == "staticmethod"
                    for d in node.decorator_list))
                params.extend((node.name, name, index, node.lineno)
                              for name, index in _defaulted(node, skip))
        elif isinstance(node, ast.Call):
            func, callee, offset = node.func, None, 0
            if isinstance(func, ast.Name) and func.id == "cls" and owner:
                callee = owner.name
            elif (isinstance(func, ast.Attribute)
                  and func.attr == "__init__"):
                if (isinstance(func.value, ast.Call)
                        and _name_of(func.value.func) == "super"
                        and owner is not None and owner.bases):
                    callee = _name_of(owner.bases[0])
                else:
                    callee, offset = _name_of(func.value), 1
            elif _name_of(func) == "partial" and node.args:
                callee, offset = _name_of(node.args[0]), 1
            else:
                callee = _name_of(func)
            spread = [a.value for a in node.args
                      if isinstance(a, ast.Starred)]
            spread += [k.value for k in node.keywords if k.arg is None]
            relayed = set()
            if init is not None and _name_of(func) == "__init__":
                relayed = {a.arg for a in (init.args.vararg,
                                           init.args.kwarg)
                           if a is not None}
            # ``super().__init__(*args, **kwargs)`` of the enclosing
            # ``__init__``'s own spreads relays its callers' arguments.
            forwards = bool(spread) and all(
                isinstance(v, ast.Name) and v.id in relayed for v in spread
            )
            if forwards:
                bases, has_init, _ = classes[owner.name]
                classes[owner.name] = (bases, has_init, callee)
            if callee:
                calls.append((
                    callee,
                    sum(not isinstance(a, ast.Starred)
                        for a in node.args) - offset,
                    {k.arg for k in node.keywords if k.arg},
                    bool(spread) and not forwards,
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, init, isinstance(node, ast.ClassDef))

    visit(tree, None, None, False)
    return classes, params, calls


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
    classes = {}  # name -> (bases, defines __init__, forwards to)
    params = []  # (owner, param, index, rel, lineno)
    calls = []  # (callee, positional, keywords, spread)
    for rel_dir in REFERENCE_DIRS:
        library = rel_dir == "src/repro"
        for path in _python_files(root, rel_dir):
            if os.path.realpath(path) == SELF:
                continue  # ALLOWED's keys name, they do not reference
            rel = os.path.relpath(path, root)
            init = os.path.basename(path) == "__init__.py"
            stray = library and rel != ENTRY_POINT
            file_defs, file_refs, guards = scan(path, init, stray)
            file_classes, file_params, file_calls = scan_params(path)
            classes.update(file_classes)
            calls.extend(file_calls)
            if library:
                params.extend((cls, name, index, rel, lineno)
                              for cls, name, index, lineno in file_params)
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

    def receivers(name):
        """The classes whose ``__init__`` a call naming ``name`` runs
        with its arguments: the nearest that defines one, then each
        base it forwards ``*args``/``**kwargs`` to."""
        out = []
        while name in classes and name not in out:
            bases, has_init, forwards = classes[name]
            if has_init:
                out.append(name)
                name = forwards
            else:
                name = bases[0] if bases else None
        return out

    passed = set()  # (owner, param) some program call passes
    for callee, positional, keywords, spread in calls:
        owners = {callee, *receivers(callee)}
        passed.update(
            (cls, name) for cls, name, index, _, _ in params
            if cls in owners and (
                spread or name in keywords
                or (index is not None and index < positional)
            )
        )
    failures.extend(
        (rel, lineno, f"{cls}.{name}: no program call passes it")
        for cls, name, _, rel, lineno in params
        if (cls, name) not in passed and f"{cls}.{name}" not in ALLOWED
    )

    tool = os.path.join("tools", os.path.basename(SELF))
    for name in ALLOWED:
        if "." in name:
            cls, param = name.split(".")
            mine = [(rel, lineno) for c, p, _, rel, lineno in params
                    if (c, p) == (cls, param)]
            stale = (cls, param) in passed and "the program passes it"
        else:
            mine = [d[1:3] for d in defs if d[0] == name]
            stale = any(referenced(d) for d in defs if d[0] == name) and (
                "the program references it"
            )
        if not mine:
            failures.append((tool, _allowed_line(name),
                             f"stale ALLOWED entry {name!r}: not defined"))
        elif stale:
            failures.append(mine[0] + (
                f"stale ALLOWED entry {name!r}: {stale}",
            ))

    if failures:
        sys.stderr.write(
            "definitions, __init__ options and function options that no "
            "program code references (in " + ", ".join(REFERENCE_DIRS)
            + "):\n"
        )
        for rel, lineno, message in sorted(failures):
            sys.stderr.write(f"  {rel}:{lineno}: {message}\n")
        return 1
    sys.stdout.write(
        "every definition, __init__ option and function option in "
        "src/repro is referenced by the program\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
