"""``tools/check_reachable.py``: the reachability gate.

The gate itself runs the whole program under ``sys.setprofile`` (CI's
``reachability`` job).  These tests run it on a tiny source tree with a
one-script run set, so they check the gate's logic, including a def
entered only in a forked child that leaves through ``os._exit``, in a
second or so.  The last tests check that the real run set names
programs that exist.
"""

import importlib.util
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULE = '''\
import abc
import functools


def used():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def in_child():
    return 3


def unused():
    return 4


class Hooks(abc.ABC):
    @abc.abstractmethod
    def hook(self):
        """A declaration: never entered, never a finding."""
'''

SCRIPT = '''\
import os

from repro import mod

mod.used()
mod.decorated()
pid = os.fork()
if pid == 0:
    mod.in_child()
    os._exit(0)
os.waitpid(pid, 0)
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_reachable", os.path.join(REPO, "tools", "check_reachable.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(tmp_path, monkeypatch):
    """The tool, pointed at a tree of one module and one script."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "run.py").write_text(SCRIPT)
    module = _load_tool()
    monkeypatch.setattr(module, "RUNS", (("script", "run.py"),))
    monkeypatch.setattr(module, "ALLOWED", {})
    return module


def _findings(capsys):
    return [line.strip() for line in capsys.readouterr().err.splitlines()
            if line.startswith("  ")]


def test_def_no_run_enters_fails(tool, tmp_path, capsys):
    assert tool.main(["check_reachable.py", str(tmp_path)]) == 1
    # used, decorated and in_child (entered in a forked child that
    # exits through os._exit) are entered; Hooks.hook is a declaration.
    assert _findings(capsys) == [
        "src/repro/mod.py:18: unused: no run enters it",
    ]


def test_allowed_def_passes(tool, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tool, "ALLOWED", {"repro/mod.py:unused": "reason"})
    assert tool.main(["check_reachable.py", str(tmp_path)]) == 0
    assert _findings(capsys) == []


def test_stale_allowed_entry_fails(tool, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tool, "ALLOWED", {
        "repro/mod.py:unused": "reason",
        "repro/mod.py:in_child": "entered in the forked child",
        "repro/mod.py:gone": "deleted def",
    })
    assert tool.main(["check_reachable.py", str(tmp_path)]) == 1
    findings = _findings(capsys)
    assert findings == [
        "src/repro/mod.py:14: stale ALLOWED entry "
        "'repro/mod.py:in_child': a run enters it",
        "tools/check_reachable.py:0: stale ALLOWED entry "
        "'repro/mod.py:gone': not defined",
    ]


def test_failed_run_fails(tool, tmp_path, capsys):
    (tmp_path / "run.py").write_text("raise SystemExit(3)\n")
    tool.ALLOWED.update({
        f"repro/mod.py:{name}": "reason"
        for name in ("used", "decorated", "in_child", "unused")
    })
    assert tool.main(["check_reachable.py", str(tmp_path)]) == 1
    assert "run failed: script run.py: exit 3" in capsys.readouterr().err


def test_allowed_entries_give_reasons():
    for name, reason in _load_tool().ALLOWED.items():
        assert ":" in name and reason.strip(), name


def test_runs_name_real_programs():
    """Every run names an existing script, CLI command or workload."""
    from repro.cli import build_parser

    sys.path.insert(0, os.path.join(REPO, "perf"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(os.path.join(REPO, "perf"))
    parser = build_parser()
    kinds = set()
    for kind, *args in _load_tool().RUNS:
        kinds.add(kind)
        if kind in ("script", "pytest"):
            assert os.path.isfile(os.path.join(REPO, args[0])), args
        elif kind == "cli":
            parser.parse_args([a.replace("{tmp}", "/x") for a in args])
        elif kind == "perf":
            assert args[0] in WORKLOADS
        else:
            assert (kind, args) == ("serve", [])
    assert kinds == {"script", "pytest", "cli", "perf", "serve"}
    examples = sorted(
        f"examples/{name}" for name in os.listdir(os.path.join(REPO,
                                                               "examples"))
        if name.endswith(".py")
    )
    scripts = [args[0] for kind, *args in _load_tool().RUNS
               if kind == "script"]
    assert sorted(scripts) == examples
