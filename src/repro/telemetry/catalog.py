"""Run catalog: scan telemetry export trees into a browsable index.

The live service's ``/api/runs`` endpoints are backed by this module:
:func:`scan_runs` walks a directory tree for telemetry exports — single
``--telemetry DIR`` runs and ``merge_point_dirs`` sweep roots alike —
and summarizes each into a :class:`RunInfo` keyed by a stable
config-hash id (derived from the run's meta, point layout, and record
count, so re-scanning the same tree yields the same ids).

Scanning is read-only and tolerant: runs still being written, and
partially written runs from killed sweeps, are indexed with whatever
parses, and malformed lines never abort the scan.  A run is complete
once its export has written ``timeline.json`` (a merged sweep root:
``points.json``); until then its record count, and so its id, grow.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.exporters import (
    MANIFEST_FILE,
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
    SNAPSHOTS_FILE,
    TIMELINE_FILE,
    TRACE_FILE,
)

#: Hex digits of the config hash used as a run id.
_ID_LEN = 12


@dataclass
class RunInfo:
    """Summary of one telemetry export directory."""

    run_id: str
    path: str
    #: Directory name relative to the scan root (the human handle).
    name: str
    #: Pipeline meta from metrics.json (seed, num_nodes, ...), if any.
    meta: Dict = field(default_factory=dict)
    #: Point labels from points.json for merged sweeps, else empty.
    points: List[str] = field(default_factory=list)
    #: Point labels skipped by the merge (partial exports).
    skipped_points: List[str] = field(default_factory=list)
    records: int = 0
    #: Simulated time span covered by the trace (ms).
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    #: Artifact filenames present in the directory.
    artifacts: List[str] = field(default_factory=list)
    #: True once the export finished (see :func:`is_complete`).
    complete: bool = False

    def to_dict(self) -> Dict:
        """Plain-dict form for the JSON API."""
        return {
            "id": self.run_id,
            "name": self.name,
            "path": self.path,
            "meta": self.meta,
            "points": self.points,
            "skipped_points": self.skipped_points,
            "records": self.records,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "artifacts": self.artifacts,
            "complete": self.complete,
        }


def is_complete(run_dir: str) -> bool:
    """Whether the run's export has written its last file."""
    return any(os.path.exists(os.path.join(run_dir, name))
               for name in (TIMELINE_FILE, MANIFEST_FILE))


def iter_trace(path: str):
    """Yield parsed records from a trace file, ignoring torn lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    yield json.loads(line)
                except ValueError:
                    return  # torn tail of a killed export
    except OSError:
        return


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _summarize_dir(root: str, run_dir: str) -> Optional[RunInfo]:
    trace_path = os.path.join(run_dir, TRACE_FILE)
    records = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for record in iter_trace(trace_path):
        records += 1
        t = record.get("t")
        if isinstance(t, (int, float)):
            t_min = float(t) if t_min is None else min(t_min, float(t))
            t_max = float(t) if t_max is None else max(t_max, float(t))

    meta: Dict = {}
    metrics = _load_json(os.path.join(run_dir, METRICS_JSON_FILE))
    if isinstance(metrics, dict) and isinstance(metrics.get("meta"), dict):
        meta = metrics["meta"]

    points: List[str] = []
    skipped: List[str] = []
    manifest = _load_json(os.path.join(run_dir, MANIFEST_FILE))
    if isinstance(manifest, list):
        for entry in manifest:
            if not isinstance(entry, dict):
                continue
            label = str(entry.get("label", "?"))
            if entry.get("skipped"):
                skipped.append(label)
            else:
                points.append(label)

    artifacts = sorted(
        name for name in (TRACE_FILE, SNAPSHOTS_FILE, METRICS_TEXT_FILE,
                          METRICS_JSON_FILE, TIMELINE_FILE, MANIFEST_FILE)
        if os.path.exists(os.path.join(run_dir, name))
    )
    if not artifacts:
        return None

    name = os.path.relpath(run_dir, root)
    if name == ".":
        name = os.path.basename(os.path.abspath(run_dir)) or "run"
    digest = hashlib.sha256(
        json.dumps(
            {"meta": meta, "points": points, "records": records,
             "name": name},
            sort_keys=True, default=str,
        ).encode("utf-8")
    ).hexdigest()[:_ID_LEN]
    return RunInfo(
        run_id=digest, path=run_dir, name=name, meta=meta,
        points=points, skipped_points=skipped, records=records,
        t_min=t_min, t_max=t_max, artifacts=artifacts,
        complete=is_complete(run_dir),
    )


def scan_runs(root: str) -> List[RunInfo]:
    """Index every telemetry export directory under ``root``.

    A directory counts as a run when it holds a ``trace.jsonl`` (or a
    sweep manifest).  Per-point subdirectories referenced by a parent's
    ``points.json`` are folded into the merged run rather than listed
    twice.  Results are sorted by name; colliding config hashes (e.g.
    two copies of the same export) get a positional suffix so ids stay
    unique within one scan.
    """
    root = os.path.abspath(root)
    run_dirs: List[str] = []
    merged_children = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        if TRACE_FILE in filenames or MANIFEST_FILE in filenames:
            run_dirs.append(dirpath)
            manifest = _load_json(os.path.join(dirpath, MANIFEST_FILE))
            if isinstance(manifest, list):
                for entry in manifest:
                    if isinstance(entry, dict) and "dir" in entry:
                        child = os.path.normpath(
                            os.path.join(dirpath, str(entry["dir"]))
                        )
                        merged_children.add(child)

    runs: List[RunInfo] = []
    seen_ids: Dict[str, int] = {}
    for run_dir in sorted(run_dirs):
        if run_dir in merged_children:
            continue
        info = _summarize_dir(root, run_dir)
        if info is None:
            continue
        bump = seen_ids.get(info.run_id)
        seen_ids[info.run_id] = (bump or 0) + 1
        if bump:
            info.run_id = f"{info.run_id[:-2]}{bump:02d}"
        runs.append(info)
    runs.sort(key=lambda info: info.name)
    return runs


def find_run(root: str, run_id: str) -> Optional[RunInfo]:
    """Look up one run by id or name (``"latest"``: the newest trace).

    The name, a run's directory relative to ``root``, is the handle
    that stays fixed while a run grows.
    """
    runs = scan_runs(root)
    if not runs:
        return None
    if run_id == "latest":
        return max(
            runs,
            key=lambda info: os.path.getmtime(
                os.path.join(info.path, TRACE_FILE)
            ) if os.path.exists(os.path.join(info.path, TRACE_FILE)) else 0.0,
        )
    for info in runs:
        if run_id in (info.run_id, info.name):
            return info
    # A sweep point keeps its name after the merge folds it into the
    # sweep's run.
    root = os.path.abspath(root)
    run_dir = os.path.normpath(os.path.join(root, run_id))
    if (os.path.commonpath([root, run_dir]) == root
            and os.path.isfile(os.path.join(run_dir, TRACE_FILE))):
        return _summarize_dir(root, run_dir)
    return None


def run_detail(info: RunInfo) -> Dict:
    """Full detail for ``/api/runs/<id>``: summary plus record kinds."""
    kinds: Dict[str, int] = {}
    for record in iter_trace(os.path.join(info.path, TRACE_FILE)):
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    detail = info.to_dict()
    detail["kinds"] = dict(sorted(kinds.items()))
    return detail
