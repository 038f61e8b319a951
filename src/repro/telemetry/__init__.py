"""Zero-overhead observability: metrics, structured traces, exporters.

The telemetry layer is **off by default**: every instrumented component
keeps a ``telemetry`` attribute (or a ``_tel_wait`` histogram slot on
resources) that is ``None`` until :func:`attach_simulation` installs a
pipeline, so the hot paths pay a single attribute check — the same
discipline as the idle fault layer.  Attachment is opt-in per
simulation: ``Simulation(telemetry=DIR)`` / ``--telemetry DIR`` exports
to a directory, ``Simulation(telemetry=True)`` keeps the pipeline in
memory only, and an installed live bus (``--live-port``) attaches one
to every simulation activated while it runs.

Telemetry never draws from RNG streams, never schedules events, and
never reads the wall clock: all timestamps are simulated milliseconds,
records are buffered in memory, and files are only written at export
time (post-fork in forked sweeps).  Enabled or disabled, simulation
results are bit-identical.

See ``docs/observability.md`` for the architecture and the exporter
formats (Prometheus text, JSONL trace, Chrome trace-event timeline).
"""

from repro.telemetry.exporters import (
    chrome_trace,
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

def live_installed() -> bool:
    """Whether a live streaming bus is installed (``--live-port``).

    Lazy: the :mod:`repro.telemetry.live` module is only imported once
    something has installed a bus, so the common non-streaming path
    costs a dict lookup in ``sys.modules``.
    """
    import sys

    live = sys.modules.get("repro.telemetry.live")
    return live is not None and live.installed() is not None


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
    "chrome_trace",
    "live_installed",
    "merge_point_dirs",
    "prometheus_text",
    "write_export",
]
