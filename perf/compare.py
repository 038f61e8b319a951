"""Compare two benchmark records against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 perf/bench.py --out A.json      # on the baseline commit
    python3 perf/bench.py --out B.json      # on the candidate commit
    python3 perf/compare.py A.json B.json

Prints one row per workload.  Each end-to-end metric is compared by
its median over the repetitions: it has regressed when B is worse than
A by more than the metric's bound.  When the spread of either side
(interquartile range over median) exceeds the bound, the comparison
cannot resolve a change of that size and the metric is reported as
``unresolved`` — unless every repetition of B beats every repetition of
A.  Both records must come from the same seed: their digests and
simulated metrics must be identical, because a change that only makes
the program faster leaves the simulation unchanged.

Exits 1 when a metric regressed, a simulated result differs, or B
failed a correctness check; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(samples: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare_metric(decl: dict, a: Sequence[float],
                   b: Sequence[float]) -> Tuple[str, float]:
    """(status, relative change of the median) of one metric."""
    lower = decl["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma
    worse = change if lower else -change
    if max(spread(a), spread(b)) > decl["bound"]:
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        return ("better" if b_wins else "unresolved"), change
    if worse > decl["bound"]:
        return "REGRESSED", change
    return "ok", change


def compare(a: dict, b: dict, declared: List[dict]) -> Tuple[List[str], bool]:
    """Report rows and overall pass/fail for two ``bench.py --out`` records."""
    rows, ok = [], True
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            rows.append(f"{name:<14} missing from B")
            ok = False
            continue
        cells = []
        for decl in declared:
            metric = decl["name"]
            sa, sb = ra["samples"][metric], rb["samples"][metric]
            status, change = compare_metric(decl, sa, sb)
            ok = ok and status != "REGRESSED"
            cells.append(
                f"{metric} {statistics.median(sa):.4g}->"
                f"{statistics.median(sb):.4g} ({change:+.1%}) {status}"
            )
        if ra["digests"] != rb["digests"]:
            cells.append("DIGEST DIFFERS")
            ok = False
        if ra["simulated"] != rb["simulated"]:
            cells.append("SIMULATED METRICS DIFFER")
            ok = False
        if not rb["correct"]:
            cells.append("B FAILED CHECKS")
            ok = False
        rows.append(f"{name:<14} " + " | ".join(cells))
    return rows, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    rows, ok = compare(records[0], records[1], declared)
    for row in rows:
        print(row)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
