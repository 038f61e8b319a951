"""Terminal-friendly rendering and export of experiment series.

The paper's Figure 2 is a line plot; this module renders the same
series as an ASCII chart (no plotting dependencies) and exports series
data as CSV for external tooling.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Data columns and rows of a chart.
WIDTH = 72
HEIGHT = 16
#: Marks of the primary and secondary series of an overlay chart.
MARKS = "*o"


def ascii_chart(
    values: Sequence[float],
    height: int = HEIGHT,
    label: str = "",
) -> str:
    """Render one series as an ASCII line chart.

    Values are binned to ``WIDTH`` columns (mean per bin) and scaled to
    ``height`` rows; the y-axis shows min/max ticks.
    """
    width = WIDTH
    if height < 3:
        raise ValueError("chart too small")
    data = [float(v) for v in values]
    if not data:
        return "(empty series)"
    # Bin to the requested width.
    if len(data) > width:
        binned = []
        per_bin = len(data) / width
        for i in range(width):
            lo = int(i * per_bin)
            hi = max(int((i + 1) * per_bin), lo + 1)
            chunk = data[lo:hi]
            binned.append(sum(chunk) / len(chunk))
        data = binned
    low = min(data)
    high = max(data)
    span = high - low or 1.0
    rows = [[" "] * len(data) for _ in range(height)]
    for x, value in enumerate(data):
        y = int(round((value - low) / span * (height - 1)))
        rows[height - 1 - y][x] = "*"
    lines = []
    if label:
        lines.append(label)
    for i, row in enumerate(rows):
        if i == 0:
            tick = f"{high:10.2f} |"
        elif i == height - 1:
            tick = f"{low:10.2f} |"
        else:
            tick = " " * 10 + " |"
        lines.append(tick + "".join(row))
    lines.append(" " * 10 + " +" + "-" * len(data))
    return "\n".join(lines)


def overlay_chart(
    primary: Sequence[float],
    secondary: Sequence[float],
    label: str = "",
) -> str:
    """Two series on a shared y-axis (e.g. observed RT vs. goal)."""
    height = HEIGHT
    series = [list(map(float, primary)), list(map(float, secondary))]
    flat = [v for s in series for v in s]
    if not flat:
        return "(empty series)"
    low, high = min(flat), max(flat)
    span = high - low or 1.0
    n = max(len(s) for s in series)
    columns = min(WIDTH, n)
    grid = [[" "] * columns for _ in range(height)]
    for mark, data in zip(MARKS, series):
        if not data:
            continue
        for x in range(columns):
            index = int(x * len(data) / columns)
            value = data[index]
            y = int(round((value - low) / span * (height - 1)))
            grid[height - 1 - y][x] = mark
    lines = []
    if label:
        lines.append(label)
    for i, row in enumerate(grid):
        if i == 0:
            tick = f"{high:10.2f} |"
        elif i == height - 1:
            tick = f"{low:10.2f} |"
        else:
            tick = " " * 10 + " |"
        lines.append(tick + "".join(row))
    lines.append(" " * 10 + " +" + "-" * columns)
    lines.append(
        " " * 12 + f"{MARKS[0]} = primary, {MARKS[1]} = secondary"
    )
    return "\n".join(lines)


def series_to_csv(
    headers: Sequence[str],
    columns: Sequence[Sequence],
    path: Optional[str] = None,
) -> str:
    """Serialize parallel columns as CSV; optionally write to ``path``."""
    if len(headers) != len(columns):
        raise ValueError("one header per column required")
    lines = [",".join(headers)]
    for row in zip(*columns):
        lines.append(",".join(str(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
