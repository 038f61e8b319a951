"""Unit tests for the plain-text reporting helpers."""

import importlib.util
import os
import subprocess
import sys

from repro.experiments.reporting import _fmt, emit, format_series, format_table


def test_format_table_empty_rows():
    text = format_table(["a", "bb"], [])
    lines = text.splitlines()
    assert lines[0].split() == ["a", "bb"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 2


def test_format_table_with_title():
    text = format_table(["x"], [[1]], title="T")
    assert text.splitlines()[0] == "T"


def test_format_table_alignment_widths():
    text = format_table(["col"], [["wide-cell"], ["x"]])
    lines = text.splitlines()
    # All rows padded to the widest cell.
    assert len(set(len(line) for line in lines)) == 1


def test_format_table_ragged_row_longer_than_headers():
    # Extra cells beyond the headers must not crash; they get their
    # own (unnamed) column.
    text = format_table(["a"], [[1, 2, 3]])
    assert "2" in text and "3" in text


def test_format_table_ragged_row_shorter_than_headers():
    text = format_table(["a", "b", "c"], [[1]])
    assert "1" in text


def test_format_series_zips_columns():
    text = format_series(["i", "v"], [[1, 2], [10.0, 20.0]])
    lines = text.splitlines()
    assert len(lines) == 4  # header + rule + 2 rows
    assert "10.000" in lines[2]


def test_fmt_float_precision():
    assert _fmt(1.23456) == "1.235"
    assert _fmt(1234.5) == "1234"  # large floats drop decimals
    assert _fmt(-0.5) == "-0.500"
    assert _fmt(7) == "7"
    assert _fmt("s") == "s"


def test_emit_writes_line(capsys):
    emit("hello")
    emit()
    captured = capsys.readouterr()
    assert captured.out == "hello\n\n"


def test_no_stray_prints_in_library():
    """The AST lint must pass on the current tree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "check_no_prints.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def _run_unreferenced(root=None):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = [sys.executable,
            os.path.join(repo, "tools", "check_unreferenced.py")]
    if root is not None:
        argv.append(root)
    return subprocess.run(argv, capture_output=True, text=True)


def test_no_unreferenced_library_code():
    """Every src/repro definition is named by the program itself."""
    result = _run_unreferenced()
    assert result.returncode == 0, result.stderr


def test_unreferenced_lint_flags_test_only_function(tmp_path):
    """A function only a test calls fails with file:line; one an
    example calls, and an allow-listed override, pass."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def only_tested():\n"
        "    return 2\n"
        "\n"
        "\n"
        "class Handler:\n"
        "    def do_GET(self):\n"
        "        return used()\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import Handler\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import only_tested\n"
        "assert only_tested() == 2\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "mod.py")
    assert f"{rel}:5: only_tested" in result.stderr
    assert ": used" not in result.stderr
    assert ": do_GET" not in result.stderr
    assert ": Handler" not in result.stderr


def _load_tool(name):
    """Import one of ``tools/*.py`` as a module (for its ALLOWED)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(repo, "tools", name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _allowed_line(tool, needle):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "tools", tool + ".py")) as fh:
        for lineno, line in enumerate(fh, 1):
            if needle in line:
                return lineno
    raise AssertionError(f"{needle} not in tools/{tool}.py")


def _allowed_options():
    """The ``owner.param`` entries of the unreferenced lint's
    ``ALLOWED``, as owner -> [param]: a class (``Class.param``, an
    ``__init__`` option) or a def (``name.param``, a function option)."""
    options = {}
    for entry in _load_tool("check_unreferenced").ALLOWED:
        if "." in entry:
            owner, param = entry.split(".")
            options.setdefault(owner, []).append(param)
    return options


def _stub(owner, params):
    """A class whose ``__init__`` defaults ``params`` (capitalised
    ``owner``) or a def that does, never passed."""
    defaults = "=None, ".join(params) + "=None"
    if owner[0].isupper():
        return (f"\n\nclass {owner}:\n"
                f"    def __init__(self, {defaults}):\n        pass\n")
    return f"\n\ndef {owner}({defaults}):\n    pass\n"


def _clean_tree(tmp_path):
    """A tree the unreferenced lint passes: one used function, and a
    stub for every allow-listed name (defined, never referenced) and
    every allow-listed ``owner.param`` (see :func:`_stub`)."""
    allowed = _load_tool("check_unreferenced").ALLOWED
    options = _allowed_options()
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "allowed.py").write_text(
        "class Stubs:\n"
        + "".join(f"    def {name}(self):\n        pass\n"
                  for name in allowed if "." not in name)
        + "".join(_stub(owner, params) for owner, params in options.items())
    )
    (pkg / "mod.py").write_text("def used():\n    return 1\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.allowed import "
        + ", ".join(["Stubs", *options]) + "\n"
        "from repro.mod import used\n"
        "used()\n"
    )
    (tmp_path / "tests").mkdir()
    return pkg


def test_unreferenced_lint_passes_clean_tree(tmp_path):
    _clean_tree(tmp_path)
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 0, result.stderr


def test_unreferenced_lint_ignores_reexports(tmp_path):
    """A function only an ``__init__.py`` re-exports (and lists in
    ``__all__``) and only a test calls is unreferenced."""
    pkg = _clean_tree(tmp_path)
    sub = pkg / "sub"
    sub.mkdir()
    (sub / "__init__.py").write_text(
        "from repro.sub.helpers import exported\n"
        "\n"
        '__all__ = ["exported"]\n'
    )
    (sub / "helpers.py").write_text("def exported():\n    return 2\n")
    (tmp_path / "tests" / "test_sub.py").write_text(
        "from repro.sub import exported\n"
        "assert exported() == 2\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "sub", "helpers.py")
    assert f"{rel}:1: exported" in result.stderr


def test_unreferenced_lint_ignores_prose(tmp_path):
    """A method named only in a docstring and a comment elsewhere is
    unreferenced, even though its class is used."""
    pkg = _clean_tree(tmp_path)
    (pkg / "shapes.py").write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return 0\n"
    )
    (pkg / "docs.py").write_text(
        '"""Call ``Shape.area`` for the area."""\n'
        "\n"
        "\n"
        "def describe():\n"
        '    """Mentions area in prose only."""\n'
        "    return 1  # area\n"
    )
    (tmp_path / "examples" / "shapes.py").write_text(
        "from repro.docs import describe\n"
        "from repro.shapes import Shape\n"
        "Shape()\n"
        "describe()\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "shapes.py")
    assert f"{rel}:2: area" in result.stderr
    assert ": Shape" not in result.stderr
    assert ": describe" not in result.stderr


def test_unreferenced_lint_follows_dead_callers(tmp_path):
    """A def that only an unreferenced def calls is unreferenced too,
    and recursion inside a def's own body does not keep it alive."""
    pkg = _clean_tree(tmp_path)
    (pkg / "chain.py").write_text(
        "def leaf():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def caller(n):\n"
        "    return leaf() if n == 0 else caller(n - 1)\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "chain.py")
    assert f"{rel}:1: leaf" in result.stderr
    assert f"{rel}:5: caller" in result.stderr


def test_unreferenced_lint_flags_main_guard(tmp_path):
    """Only ``repro/__main__.py`` may hold a ``__main__`` guard; a
    ``main()`` that only another module's guard calls is unreferenced."""
    pkg = _clean_tree(tmp_path)
    (pkg / "__main__.py").write_text(
        "from repro.tool import run\n"
        "\n"
        'if __name__ == "__main__":\n'
        "    run()\n"
    )
    (pkg / "tool.py").write_text(
        "def run():\n"
        "    return 0\n"
        "\n"
        "\n"
        "def main():\n"
        "    return run()\n"
        "\n"
        "\n"
        'if __name__ == "__main__":\n'
        "    main()\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "tool.py")
    assert f"{rel}:9: if __name__" in result.stderr
    assert f"{rel}:5: main" in result.stderr
    assert ": run" not in result.stderr
    assert "__main__.py:" not in result.stderr


def test_unreferenced_lint_flags_stale_allow_entry(tmp_path):
    """An allow-listed name the program now references, or one that is
    no longer defined, fails: the allow-list cannot go stale."""
    pkg = _clean_tree(tmp_path)
    # The first allow-listed name: its stub is line 2 of allowed.py.
    name = next(iter(_load_tool("check_unreferenced").ALLOWED))
    (tmp_path / "examples" / "calls.py").write_text(
        f"from repro.allowed import Stubs\nStubs().{name}()\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "allowed.py")
    assert f"{rel}:2: stale ALLOWED entry {name!r}" in result.stderr

    (tmp_path / "examples" / "calls.py").unlink()
    (pkg / "allowed.py").write_text(
        (pkg / "allowed.py").read_text().replace(f"def {name}(", "def x(")
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    line = _allowed_line("check_unreferenced", f'"{name}":')
    tool = os.path.join("tools", "check_unreferenced.py")
    assert f"{tool}:{line}: stale ALLOWED entry {name!r}: not defined" in (
        result.stderr
    )


def test_unreferenced_lint_flags_unpassed_init_option(tmp_path):
    """A defaulted ``__init__`` parameter that only a test passes fails
    as ``Class.param``; one a program call passes by position, by
    keyword, through ``cls(...)`` or through a subclass's forwarded
    ``*args``/``**kwargs`` passes."""
    pkg = _clean_tree(tmp_path)
    (pkg / "pool.py").write_text(
        "class Pool:\n"
        "    def __init__(self, capacity, k=2, *, clock=None, mode='a',\n"
        "                 spare=0, tuned=1.0):\n"
        "        self.capacity = capacity\n"
        "\n"
        "    @classmethod\n"
        "    def empty(cls):\n"
        "        return cls(0, spare=1)\n"
        "\n"
        "\n"
        "class Sub(Pool):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        super().__init__(*args, **kwargs)\n"
    )
    (tmp_path / "examples" / "pool.py").write_text(
        "from repro.pool import Pool, Sub\n"
        "Pool(4, 3)\n"
        "Pool(4, clock=None)\n"
        "Sub(1, mode='b')\n"
        "Pool.empty()\n"
    )
    (tmp_path / "tests" / "test_pool.py").write_text(
        "from repro.pool import Pool\n"
        "Pool(1, tuned=2.0)\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "pool.py")
    assert f"{rel}:2: Pool.tuned: no program call passes it" in (
        result.stderr
    )
    for param in ("k", "clock", "mode", "spare"):
        assert f"Pool.{param}:" not in result.stderr
    assert "Sub." not in result.stderr


def _check_stale_option_entry(tmp_path, init):
    """An allow-listed option (the first ``Class.param`` when ``init``,
    else the first ``name.param``) fails once a program call passes it,
    and once nothing defines it any more."""
    pkg = _clean_tree(tmp_path)
    cls, params = next(
        (owner, params) for owner, params in _allowed_options().items()
        if owner[0].isupper() == init
    )
    name = f"{cls}.{params[0]}"
    (tmp_path / "examples" / "calls.py").write_text(
        f"from repro.allowed import {cls}\n{cls}({params[0]}=1)\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "allowed.py")
    assert f"stale ALLOWED entry {name!r}: the program passes it" in (
        result.stderr
    )
    assert f"{rel}:" in result.stderr

    (tmp_path / "examples" / "calls.py").unlink()
    (pkg / "allowed.py").write_text(
        (pkg / "allowed.py").read_text().replace(
            f"({'self, ' if init else ''}{params[0]}=None",
            f"({'self, ' if init else ''}renamed=None",
        )
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    line = _allowed_line("check_unreferenced", f'"{name}":')
    tool = os.path.join("tools", "check_unreferenced.py")
    assert f"{tool}:{line}: stale ALLOWED entry {name!r}: not defined" in (
        result.stderr
    )
    assert "allowed.py:" in result.stderr  # renamed: now unpassed


def test_unreferenced_lint_flags_stale_option_entry(tmp_path):
    """An allow-listed ``Class.param`` that a program call now passes,
    or that no ``__init__`` defines any more, fails."""
    _check_stale_option_entry(tmp_path, init=True)


def test_unreferenced_lint_flags_stale_function_option_entry(tmp_path):
    """An allow-listed ``name.param`` that a program call now passes,
    or that no def defines any more, fails."""
    _check_stale_option_entry(tmp_path, init=False)


def test_unreferenced_lint_flags_unpassed_function_option(tmp_path):
    """A defaulted parameter of a plain function or method that only a
    test passes fails as ``name.param``; one a program call passes by
    position (after ``self``), by keyword, through ``**kwargs`` or
    through ``functools.partial`` passes."""
    pkg = _clean_tree(tmp_path)
    (pkg / "calls.py").write_text(
        "def by_position(x, factor=1.0):\n"
        "    return x * factor\n"
        "\n"
        "\n"
        "def by_keyword(x, *, offset=0):\n"
        "    return x + offset\n"
        "\n"
        "\n"
        "def by_spread(x, mode='a'):\n"
        "    return mode\n"
        "\n"
        "\n"
        "def by_partial(x, spare=0):\n"
        "    return spare\n"
        "\n"
        "\n"
        "def only_tested(x, tuned=1.0):\n"
        "    return x * tuned\n"
        "\n"
        "\n"
        "class Pool:\n"
        "    def grow(self, n=1, step=2):\n"
        "        return n * step\n"
    )
    (tmp_path / "examples" / "calls.py").write_text(
        "import functools\n"
        "from repro.calls import (\n"
        "    Pool, by_keyword, by_partial, by_position, by_spread,\n"
        "    only_tested,\n"
        ")\n"
        "by_position(1, 2.0)\n"
        "by_keyword(1, offset=3)\n"
        "opts = {'mode': 'b'}\n"
        "by_spread(1, **opts)\n"
        "functools.partial(by_partial, 1, 2)()\n"
        "only_tested(1)\n"
        "Pool().grow(5)\n"
    )
    (tmp_path / "tests" / "test_calls.py").write_text(
        "from repro.calls import Pool, only_tested\n"
        "only_tested(1, tuned=2.0)\n"
        "Pool().grow(1, step=3)\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "calls.py")
    assert f"{rel}:17: only_tested.tuned: no program call passes it" in (
        result.stderr
    )
    assert f"{rel}:22: grow.step: no program call passes it" in (
        result.stderr
    )
    for option in ("factor", "offset", "mode", "spare", "grow.n"):
        assert f"{option}:" not in result.stderr


def test_unreferenced_lint_exempts_dunder_options(tmp_path):
    """A dunder method's defaulted parameter is never a finding (its
    callers never name it); a plain method's beside it is."""
    pkg = _clean_tree(tmp_path)
    (pkg / "vec.py").write_text(
        "class Vec:\n"
        "    def __init__(self, x=0):\n"
        "        self.x = x\n"
        "\n"
        "    def __call__(self, scale=1.0):\n"
        "        return self.x * scale\n"
        "\n"
        "    def __round__(self, ndigits=None):\n"
        "        return round(self.x, ndigits)\n"
        "\n"
        "    def norm(self, order=2):\n"
        "        return abs(self.x) ** order\n"
    )
    (tmp_path / "examples" / "vec.py").write_text(
        "from repro.vec import Vec\n"
        "v = Vec(1)\n"
        "v()\n"
        "round(v)\n"
        "v.norm()\n"
    )
    result = _run_unreferenced(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "vec.py")
    assert f"{rel}:11: norm.order: no program call passes it" in (
        result.stderr
    )
    for dunder in ("__call__", "__round__", "scale", "ndigits"):
        assert dunder not in result.stderr


def _run_lint(root):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run(
        [sys.executable,
         os.path.join(repo, "tools", "check_no_prints.py"), root],
        capture_output=True,
        text=True,
    )


def test_no_print_lint_flags_stray_print(tmp_path):
    """A bare print outside the allow-list fails with file:line."""
    pkg = tmp_path / "src" / "repro" / "telemetry"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("print('debug')\n")
    result = _run_lint(str(tmp_path))
    assert result.returncode == 1
    rel = os.path.join("src", "repro", "telemetry", "bad.py")
    assert f"{rel}:1" in result.stderr


def test_no_print_lint_allows_cli_boundary(tmp_path):
    """The CLI's prints stay allow-listed, and a same-named file
    elsewhere fails with the allow-list reason."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "cli.py").write_text("print('result')\n")
    assert _run_lint(str(tmp_path)).returncode == 0
    stray = pkg / "experiments" / "cli.py"
    stray.parent.mkdir()
    stray.write_text("print('nope')\n")
    result = _run_lint(str(tmp_path))
    assert result.returncode == 1
    # The near-miss hint names the sanctioned path and its reason.
    assert f"{os.path.join('experiments', 'cli.py')}:1" in result.stderr
    assert "stdout boundary" in result.stderr


def test_no_print_lint_flags_stale_allow_entry(tmp_path):
    """An allow-listed file that no longer prints fails at its entry."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "cli.py").write_text("import sys\nsys.stdout.write('x')\n")
    result = _run_lint(str(tmp_path))
    assert result.returncode == 1
    line = _allowed_line("check_no_prints", '"src", "repro", "cli.py"')
    tool = os.path.join("tools", "check_no_prints.py")
    assert f"{tool}:{line}" in result.stderr
    assert "stale ALLOWED entry" in result.stderr
