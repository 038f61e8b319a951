"""Unit tests for the ASCII chart and series export helpers."""

import pytest

from repro.experiments import plotting
from repro.experiments.plotting import (
    ascii_chart,
    overlay_chart,
    series_to_csv,
)


def test_ascii_chart_dimensions(monkeypatch):
    monkeypatch.setattr(plotting, "WIDTH", 20)
    chart = ascii_chart([1.0, 2.0, 3.0], height=5)
    lines = chart.splitlines()
    assert len(lines) == 6  # 5 rows + axis
    assert all("|" in line for line in lines[:-1])


def test_ascii_chart_extremes_on_correct_rows(monkeypatch):
    monkeypatch.setattr(plotting, "WIDTH", 20)
    chart = ascii_chart([0.0, 10.0], height=5)
    lines = chart.splitlines()
    assert "*" in lines[0]       # the max lands on the top row
    assert "*" in lines[4]       # the min on the bottom row
    assert lines[0].startswith("     10.00")
    assert lines[4].startswith("      0.00")


def test_ascii_chart_bins_long_series(monkeypatch):
    monkeypatch.setattr(plotting, "WIDTH", 40)
    chart = ascii_chart(list(range(1000)), height=5)
    body = chart.splitlines()[0]
    assert len(body) <= 12 + 40  # tick + bar + data columns


def test_ascii_chart_constant_series(monkeypatch):
    monkeypatch.setattr(plotting, "WIDTH", 20)
    chart = ascii_chart([5.0] * 10, height=4)
    assert "*" in chart


def test_ascii_chart_empty_series():
    assert ascii_chart([]) == "(empty series)"


def test_ascii_chart_label():
    chart = ascii_chart([1.0], label="my chart")
    assert chart.splitlines()[0] == "my chart"


def test_ascii_chart_too_small_rejected():
    with pytest.raises(ValueError):
        ascii_chart([1.0], height=2)


def test_overlay_chart_both_marks_present(monkeypatch):
    monkeypatch.setattr(plotting, "HEIGHT", 6)
    chart = overlay_chart([1.0, 5.0, 3.0], [2.0, 2.0, 2.0])
    assert len(chart.splitlines()) == 8  # 6 rows + axis + legend
    assert "*" in chart
    assert "o" in chart
    assert "primary" in chart


def test_series_to_csv_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    text = series_to_csv(
        ["t", "rt"], [[1, 2], [10.0, 20.0]], path=str(path)
    )
    assert text.splitlines()[0] == "t,rt"
    assert text.splitlines()[2] == "2,20.0"
    assert path.read_text() == text


def test_series_to_csv_header_mismatch():
    with pytest.raises(ValueError):
        series_to_csv(["a"], [[1], [2]])
