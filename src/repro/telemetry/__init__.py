"""Zero-overhead observability: metrics, structured traces, exporters.

The telemetry layer is **off by default**: every instrumented component
keeps a ``telemetry`` attribute (or a ``_tel_wait`` histogram slot on
resources) that is ``None`` until :func:`attach_simulation` installs a
pipeline, so the hot paths pay a single attribute check — the same
discipline as the idle fault layer.  Attachment is opt-in per
simulation: ``Simulation(telemetry=DIR)`` / ``--telemetry DIR`` streams
to a directory, and ``Simulation(telemetry=True)`` keeps the pipeline
in memory only.

A run with a directory opens its files at activation: each trace
record is appended to ``trace.jsonl`` as it is emitted, and each
``interval`` record flushes the file and appends the changed metric
samples to ``snapshots.jsonl``.  The export closes both and writes the
metrics and the timeline; ``--live-port`` serves the directory while it
grows (:mod:`repro.telemetry.server`).  Telemetry never draws from RNG
streams, never schedules events, and never reads the wall clock: all
timestamps are simulated milliseconds.  Enabled or disabled,
simulation results are bit-identical.

See ``docs/observability.md`` for the architecture and the exporter
formats (Prometheus text, JSONL trace, Chrome trace-event timeline).
"""

from repro.telemetry.exporters import (
    merge_point_dirs,
    prometheus_text,
    write_export,
)
from repro.telemetry.pipeline import (
    Telemetry,
    attach_cluster,
    attach_simulation,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.ring import RingLog
from repro.telemetry.trace import TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RingLog",
    "Telemetry",
    "TraceLog",
    "attach_cluster",
    "attach_simulation",
    "merge_point_dirs",
    "prometheus_text",
    "write_export",
]
