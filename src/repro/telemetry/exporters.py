"""Exporters: Prometheus text, JSONL traces, Chrome trace-event timelines.

Exporting is the only point where telemetry touches the filesystem.  A
fork-server child therefore opens its own files post-fork (export runs
inside the child's measure function), and the sweep parent merges the
per-point directories deterministically with :func:`merge_point_dirs`.

All timestamps are simulated milliseconds; the Chrome trace-event
timeline (``timeline.json``) maps them to microseconds as required by
the format and loads directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Iterable, List, Sequence, Tuple

TRACE_FILE = "trace.jsonl"
METRICS_TEXT_FILE = "metrics.prom"
METRICS_JSON_FILE = "metrics.json"
TIMELINE_FILE = "timeline.json"
MANIFEST_FILE = "points.json"

#: Trace pid/tid layout for the Chrome timeline.
_PID_CONTROLLER = 1
_PID_FAULTS = 2

#: Record kinds rendered as duration spans (``ph: "X"``).
_SPAN_KINDS = frozenset({"interval", "fault"})


def _jsonable(value):
    """Coerce ``value`` into plain JSON types (numpy included)."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    if hasattr(value, "tolist"):  # numpy array
        return _jsonable(value.tolist())
    return str(value)


def trace_lines(records: Iterable[Dict]) -> Iterable[str]:
    """One canonical JSON line per trace record."""
    for record in records:
        yield json.dumps(_jsonable(record), sort_keys=True)


def _fmt_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.9g}"


def prometheus_text(registry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    typed = set()
    for kind, name, labels, instrument in registry.samples():
        prom_kind = {"counter": "counter", "gauge": "gauge",
                     "histogram": "summary"}[kind]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {prom_kind}")
        base = "".join(f'{k}="{v}",' for k, v in labels)
        if kind == "counter":
            lines.append(f"{name}{{{base[:-1]}}} {instrument.value}"
                         if base else f"{name} {instrument.value}")
        elif kind == "gauge":
            value = _fmt_value(instrument.value)
            lines.append(f"{name}{{{base[:-1]}}} {value}"
                         if base else f"{name} {value}")
        else:  # histogram -> summary with a p95 quantile line
            q = base + 'quantile="0.95"'
            lines.append(f"{name}{{{q}}} {_fmt_value(instrument.p95.value)}")
            suffix = f"{{{base[:-1]}}}" if base else ""
            lines.append(f"{name}_sum{suffix} {_fmt_value(instrument.sum)}")
            lines.append(f"{name}_count{suffix} {instrument.count}")
    return "\n".join(lines) + "\n"


def metrics_json(registry) -> List[Dict]:
    """Registry contents as plain dicts (for machine consumption)."""
    out: List[Dict] = []
    for kind, name, labels, instrument in registry.samples():
        entry: Dict = {"kind": kind, "name": name, "labels": dict(labels)}
        if kind == "histogram":
            stats = instrument.stats
            entry.update(
                count=stats.count,
                mean=stats.mean,
                stddev=stats.stddev,
                min=stats.minimum,
                max=stats.maximum,
                p95=instrument.p95.value,
            )
        else:
            entry["value"] = instrument.value
        out.append(_jsonable(entry))
    return out


def _timeline_event(record: Dict) -> Dict:
    kind = record["kind"]
    t_us = float(record["t"]) * 1000.0
    if kind == "fault":
        pid, tid = _PID_FAULTS, int(record.get("node") or 0)
        cat = "faults"
        name = f"fault:{record.get('fault', '?')}"
    elif kind in ("degraded_enter", "degraded_exit", "reconcile",
                  "coord_restart"):
        # Control-plane fault-domain transitions live on the faults
        # process, one thread per node (0 for cluster-wide records).
        pid, tid = _PID_FAULTS, int(record.get("node") or 0)
        cat = "faults"
        name = kind
    else:
        pid = _PID_CONTROLLER
        tid = int(record.get("class_id") or 0)
        cat = "controller"
        name = kind
    args = {k: _jsonable(v) for k, v in record.items()
            if k not in ("kind", "t")}
    if kind in _SPAN_KINDS:
        dur_us = float(record.get("duration_ms") or 0.0) * 1000.0
        return {"ph": "X", "pid": pid, "tid": tid, "cat": cat, "name": name,
                "ts": t_us - dur_us, "dur": dur_us, "args": args}
    return {"ph": "i", "s": "t", "pid": pid, "tid": tid, "cat": cat,
            "name": name, "ts": t_us, "args": args}


def chrome_trace(records: Sequence[Dict], meta: Dict = None) -> Dict:
    """Build a Chrome trace-event document over simulated time."""
    events: List[Dict] = [
        {"ph": "M", "pid": _PID_CONTROLLER, "name": "process_name",
         "args": {"name": "controller"}},
        {"ph": "M", "pid": _PID_FAULTS, "name": "process_name",
         "args": {"name": "faults"}},
    ]
    class_ids = sorted({int(r.get("class_id") or 0) for r in records
                        if r["kind"] != "fault"})
    for class_id in class_ids:
        name = "intervals" if class_id == 0 else f"class {class_id}"
        events.append({"ph": "M", "pid": _PID_CONTROLLER, "tid": class_id,
                       "name": "thread_name", "args": {"name": name}})
    events.extend(_timeline_event(record) for record in records)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if meta:
        doc["otherData"] = _jsonable(meta)
    return doc


def write_export(telemetry, outdir: str) -> Dict[str, str]:
    """Write all exporter outputs for ``telemetry`` into ``outdir``.

    Returns a mapping of artifact name to path.  This is the first (and
    only) point where telemetry opens files, so in forked sweeps it runs
    post-fork inside each child.
    """
    os.makedirs(outdir, exist_ok=True)
    telemetry.collect()
    paths = {
        "trace": os.path.join(outdir, TRACE_FILE),
        "metrics_text": os.path.join(outdir, METRICS_TEXT_FILE),
        "metrics_json": os.path.join(outdir, METRICS_JSON_FILE),
        "timeline": os.path.join(outdir, TIMELINE_FILE),
    }
    with open(paths["trace"], "w", encoding="utf-8") as fh:
        for line in trace_lines(telemetry.trace.records):
            fh.write(line + "\n")
    with open(paths["metrics_text"], "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(telemetry.registry))
    with open(paths["metrics_json"], "w", encoding="utf-8") as fh:
        json.dump({"meta": _jsonable(telemetry.meta),
                   "metrics": metrics_json(telemetry.registry)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["timeline"], "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(telemetry.trace.records, telemetry.meta),
                  fh, sort_keys=True)
        fh.write("\n")
    return paths


def merge_point_dirs(outdir: str,
                     points: Sequence[Tuple[str, str]]) -> Dict[str, str]:
    """Merge per-point sweep exports into ``outdir`` deterministically.

    ``points`` is an ordered list of ``(label, point_dir)``.  The merged
    ``trace.jsonl`` carries each point's records annotated with its
    label and sorted by **(sim-time, point position, emit sequence)**:
    records interleave on the shared simulated clock, ties broken first
    by the point's position in ``points`` and then by the record's emit
    order within its own trace.  The sort is stable and depends only on
    the inputs, so fork and cold sweeps over the same labels produce a
    bit-identical merge.

    Partially written point directories — a missing or truncated
    ``trace.jsonl`` left behind by a killed sweep — are skipped with a
    :class:`RuntimeWarning` instead of aborting the merge; their
    manifest entries carry a ``"skipped"`` reason and zero records.
    ``points.json`` records the layout either way.
    """
    os.makedirs(outdir, exist_ok=True)
    merged = os.path.join(outdir, TRACE_FILE)
    manifest: List[Dict] = []
    collected: List[Tuple[float, int, int, Dict]] = []
    for point_id, (label, point_dir) in enumerate(points):
        trace_path = os.path.join(point_dir, TRACE_FILE)
        entry = {"label": label,
                 "dir": os.path.relpath(point_dir, outdir),
                 "records": 0}
        if not os.path.exists(trace_path):
            entry["skipped"] = "missing trace.jsonl"
            warnings.warn(
                f"sweep point {label!r}: no trace at {trace_path}; "
                "skipping (killed sweep?)",
                RuntimeWarning, stacklevel=2,
            )
            manifest.append(entry)
            continue
        records: List[Tuple[float, int, int, Dict]] = []
        try:
            with open(trace_path, "r", encoding="utf-8") as fh:
                for seq, line in enumerate(fh):
                    record = json.loads(line)
                    record["point"] = label
                    records.append(
                        (float(record.get("t", 0.0)), point_id, seq, record)
                    )
        except ValueError as exc:
            # A torn final line means the whole point is suspect: the
            # writer died mid-export, so drop it rather than merge a
            # partial trace.
            entry["skipped"] = f"unparsable trace.jsonl: {exc}"
            warnings.warn(
                f"sweep point {label!r}: unparsable trace at "
                f"{trace_path} ({exc}); skipping (killed sweep?)",
                RuntimeWarning, stacklevel=2,
            )
            manifest.append(entry)
            continue
        entry["records"] = len(records)
        collected.extend(records)
        manifest.append(entry)
    collected.sort(key=lambda item: item[:3])
    with open(merged, "w", encoding="utf-8") as out:
        for _, _, _, record in collected:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    manifest_path = os.path.join(outdir, MANIFEST_FILE)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"trace": merged, "manifest": manifest_path}


def append_trace_records(outdir: str, records: Iterable[Dict]) -> str:
    """Append sweep-level records to the merged ``trace.jsonl``.

    Sweep-scoped events — e.g. the analytic ``prescreen`` record — have
    no point simulation to ride, so they are appended to the merged
    trace after :func:`merge_point_dirs`, labelled ``point: "sweep"``
    unless the record carries its own label.  Creates the file when the
    sweep ran without per-point telemetry.
    """
    os.makedirs(outdir, exist_ok=True)
    merged = os.path.join(outdir, TRACE_FILE)
    with open(merged, "a", encoding="utf-8") as out:
        for record in records:
            record = dict(record)
            record.setdefault("point", "sweep")
            out.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
    return merged
