"""Exporters: Prometheus text, JSONL traces, Chrome trace-event timelines.

A run with a telemetry directory streams its trace into ``trace.jsonl``
and its metric snapshots into ``snapshots.jsonl`` from activation on
(:meth:`repro.telemetry.pipeline.Telemetry.stream_to`).
:func:`write_export` closes both and writes the rest: the Prometheus
scrape, its JSON twin and, last, the timeline, which it builds from the
streamed trace in two passes, so no record list is held.  A fork-server
child therefore opens its own files post-fork (activation runs inside
the child), and the sweep parent merges the per-point directories
deterministically with :func:`merge_point_dirs`.

All timestamps are simulated milliseconds; the Chrome trace-event
timeline (``timeline.json``) maps them to microseconds as required by
the format and loads directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import warnings
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.telemetry.trace import jsonable, trace_line

TRACE_FILE = "trace.jsonl"
SNAPSHOTS_FILE = "snapshots.jsonl"
METRICS_TEXT_FILE = "metrics.prom"
METRICS_JSON_FILE = "metrics.json"
TIMELINE_FILE = "timeline.json"
MANIFEST_FILE = "points.json"

#: Trace pid/tid layout for the Chrome timeline.
_PID_CONTROLLER = 1
_PID_FAULTS = 2

#: Record kinds rendered as duration spans (``ph: "X"``).
_SPAN_KINDS = frozenset({"interval", "fault"})


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
        out.append(jsonable(entry))
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
    args = {k: jsonable(v) for k, v in record.items()
            if k not in ("kind", "t")}
    if kind in _SPAN_KINDS:
        dur_us = float(record.get("duration_ms") or 0.0) * 1000.0
        return {"ph": "X", "pid": pid, "tid": tid, "cat": cat, "name": name,
                "ts": t_us - dur_us, "dur": dur_us, "args": args}
    return {"ph": "i", "s": "t", "pid": pid, "tid": tid, "cat": cat,
            "name": name, "ts": t_us, "args": args}


def _read_trace(path: str) -> Iterator[Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _write_timeline(fh, trace_path: str, meta: Dict) -> None:
    """Write the Chrome trace-event document over simulated time.

    The bytes are those of ``json.dump(doc, fh, sort_keys=True)``; the
    document is written event by event from two passes over the trace
    file, so its size never sits in memory.
    """
    class_ids = sorted({int(r.get("class_id") or 0)
                        for r in _read_trace(trace_path)
                        if r["kind"] != "fault"})
    header = [
        {"ph": "M", "pid": _PID_CONTROLLER, "name": "process_name",
         "args": {"name": "controller"}},
        {"ph": "M", "pid": _PID_FAULTS, "name": "process_name",
         "args": {"name": "faults"}},
    ]
    for class_id in class_ids:
        name = "intervals" if class_id == 0 else f"class {class_id}"
        header.append({"ph": "M", "pid": _PID_CONTROLLER, "tid": class_id,
                       "name": "thread_name", "args": {"name": name}})
    fh.write('{"displayTimeUnit": "ms", ')
    if meta:
        fh.write('"otherData": '
                 + json.dumps(jsonable(meta), sort_keys=True) + ", ")
    fh.write('"traceEvents": [')
    separator = ""
    for event in chain(header,
                       map(_timeline_event, _read_trace(trace_path))):
        fh.write(separator + json.dumps(event, sort_keys=True))
        separator = ", "
    fh.write("]}\n")


def write_export(telemetry) -> Dict[str, str]:
    """Finish the export of a pipeline that streams into a directory.

    Closes the streamed trace and snapshot files, then writes the
    metrics and the timeline next to them.  ``timeline.json`` is the
    last file written, so its presence marks the run complete.
    Returns a mapping of artifact name to path.
    """
    outdir = telemetry.outdir
    telemetry.close()
    telemetry.collect()
    paths = {
        "trace": os.path.join(outdir, TRACE_FILE),
        "metrics_text": os.path.join(outdir, METRICS_TEXT_FILE),
        "metrics_json": os.path.join(outdir, METRICS_JSON_FILE),
        "timeline": os.path.join(outdir, TIMELINE_FILE),
    }
    with open(paths["metrics_text"], "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(telemetry.registry))
    with open(paths["metrics_json"], "w", encoding="utf-8") as fh:
        json.dump({"meta": jsonable(telemetry.meta),
                   "metrics": metrics_json(telemetry.registry)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["timeline"], "w", encoding="utf-8") as fh:
        _write_timeline(fh, paths["trace"], telemetry.meta)
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
            out.write(trace_line(record) + "\n")
    return merged
