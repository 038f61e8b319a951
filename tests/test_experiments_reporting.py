"""Unit tests for the plain-text reporting helpers."""

import subprocess
import sys
import os

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


def test_no_print_lint_allows_dashboard_asset(tmp_path):
    """The embedded dashboard module's print stays allow-listed, and
    a same-named file elsewhere fails with the allow-list reason."""
    pkg = tmp_path / "src" / "repro" / "telemetry"
    pkg.mkdir(parents=True)
    (pkg / "dashboard.py").write_text(
        'HTML = "<html></html>"\nprint(HTML)\n'
    )
    assert _run_lint(str(tmp_path)).returncode == 0
    stray = tmp_path / "src" / "repro" / "dashboard.py"
    stray.write_text("print('nope')\n")
    result = _run_lint(str(tmp_path))
    assert result.returncode == 1
    # The near-miss hint names the sanctioned path and its reason.
    assert os.path.join("telemetry", "dashboard.py") in result.stderr
    assert "dev preview" in result.stderr
