"""Streaming telemetry: a bounded fan-out bus plus the SSE wire format.

:class:`TelemetryBus` tees trace records and metric snapshots into
bounded per-subscriber queues so HTTP threads (or tests) can watch a
running simulation without ever touching it.  The feed is a plain
listener attribute on :class:`~repro.telemetry.trace.TraceLog` — the
same ``None``-attribute discipline as every other telemetry hook — and
the :class:`SnapshotSampler` that drives it is *sim-time* based: a
metrics snapshot is published whenever the trace's simulated clock
crosses the sampling interval, never on a wall-clock timer.

Nothing in this module schedules events, draws randomness, or blocks
the publisher: ``publish`` appends to each subscriber's deque (dropping
that subscriber's oldest record, with accounting, when it is full) and
returns.  Golden traces, fork==cold, and ``jobs=N`` bit-identity all
hold with a live bus installed — pinned by
``tests/test_telemetry_live.py``.

The module-level :func:`install` hook is how ``--live-port`` reaches a
run: :func:`repro.telemetry.pipeline.attach_simulation` consults it and
wires the sampler into any simulation activated while a bus is
installed.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

#: Bound of one bus subscriber's queue (records, not bytes).
QUEUE_LIMIT = 1024

#: Default sim-time spacing of metric snapshots when the controller's
#: observation interval is unknown (ms).
DEFAULT_SNAPSHOT_MS = 2000.0


class Subscription:
    """One subscriber's bounded view of a :class:`TelemetryBus`.

    Records are delivered oldest-first; when the queue is full the
    *oldest* record is dropped (and counted in :attr:`dropped`) so a
    slow consumer always converges on the newest state instead of
    stalling the publisher.
    """

    __slots__ = ("_queue", "_cond", "_closed", "dropped", "delivered")

    def __init__(self, maxlen: int):
        if maxlen < 1:
            raise ValueError("subscription queue bound must be >= 1")
        self._queue: deque = deque(maxlen=maxlen)
        self._cond = threading.Condition()
        self._closed = False
        #: Records evicted because this subscriber fell behind.
        self.dropped = 0
        #: Records handed out via :meth:`get`.
        self.delivered = 0

    def _offer(self, record: Dict) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) == self._queue.maxlen:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(record)
            self._cond.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Next record, blocking up to ``timeout`` seconds.

        Returns ``None`` on timeout or once the subscription is closed
        and drained.
        """
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait(timeout)
            if not self._queue:
                return None
            self.delivered += 1
            return self._queue.popleft()

    def close(self) -> None:
        """Wake any blocked reader and refuse further records."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """True once the bus (or the reader) closed this subscription."""
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)


class TelemetryBus:
    """Fan-out of telemetry records to bounded subscriber queues.

    ``publish`` is called from the simulation thread (via the trace
    listener) and must stay cheap and non-blocking: it appends to each
    subscriber's deque under that subscriber's lock and returns.  Slow
    subscribers lose *their own* oldest records — accounted per
    subscription — and never back-pressure the publisher or each other.
    """

    def __init__(self):
        self._subscribers: List[Subscription] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Total records ever published (delivered or dropped).
        self.published = 0

    def subscribe(self) -> Subscription:
        """Register and return a new subscription of ``QUEUE_LIMIT``."""
        sub = Subscription(QUEUE_LIMIT)
        with self._lock:
            if self._closed:
                sub.close()
            else:
                self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach ``sub`` (idempotent) and wake its reader."""
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass
        sub.close()

    def publish(self, record: Dict) -> None:
        """Offer ``record`` to every subscriber; never blocks."""
        with self._lock:
            if self._closed:
                return
            self.published += 1
            subscribers = list(self._subscribers)
        for sub in subscribers:
            sub._offer(record)

    def close(self) -> None:
        """Close the bus and every live subscription."""
        with self._lock:
            self._closed = True
            subscribers = self._subscribers
            self._subscribers = []
        for sub in subscribers:
            sub.close()


class SnapshotSampler:
    """TraceLog listener: publish records plus sim-time metric deltas.

    Installed as ``telemetry.trace.listener`` when a live bus is
    wired.  Every trace record is forwarded as a ``trace`` bus record;
    whenever the record's simulated timestamp crosses the sampling
    interval the registry samplers run (read-only) and the instruments
    whose values changed since the last snapshot are published as one
    ``metrics`` record.  The sampler keys off the *record's* sim-time —
    no wall clock, no event scheduling — so a paused or forked
    simulation publishes nothing until its own clock advances.
    """

    __slots__ = ("_telemetry", "_bus", "interval_ms", "_next_t", "_last")

    def __init__(self, telemetry, bus: TelemetryBus,
                 interval_ms: float = DEFAULT_SNAPSHOT_MS):
        self._telemetry = telemetry
        self._bus = bus
        self.interval_ms = max(float(interval_ms), 1.0)
        self._next_t = 0.0
        self._last: Dict[Tuple, object] = {}

    def __call__(self, record: Dict) -> None:
        self._bus.publish({"type": "trace", "record": record})
        t = record.get("t")
        if isinstance(t, (int, float)) and t >= self._next_t:
            self.snapshot(float(t))

    def snapshot(self, t: float) -> None:
        """Publish the changed metric samples as of sim-time ``t``."""
        self._next_t = t + self.interval_ms
        self._telemetry.collect()
        changed = []
        for kind, name, labels, instrument in self._telemetry.registry.samples():
            if kind == "histogram":  # publish the cheap summary triple
                value = (instrument.count, instrument.stats.mean,
                         instrument.p95.value)
            else:
                value = instrument.value
            key = (name, labels)
            if self._last.get(key) == value:
                continue
            self._last[key] = value
            entry = {"kind": kind, "name": name, "labels": dict(labels)}
            if kind == "histogram":
                entry.update(count=value[0], mean=value[1], p95=value[2])
            else:
                entry["value"] = value
            changed.append(entry)
        if changed:
            self._bus.publish({"type": "metrics", "t": t, "samples": changed})


# -- the module-level live hook ----------------------------------------

#: Bus consulted by ``attach_simulation``; None when live streaming is
#: off (the default), so attachment costs one module-global check.
_live_bus: Optional[TelemetryBus] = None

#: The most recently wired pipeline, for /metrics in live mode.
_live_telemetry = None


def install(bus: TelemetryBus) -> None:
    """Arm live streaming: simulations activated after this call wire
    a :class:`SnapshotSampler` feeding ``bus`` into their telemetry
    pipeline (attaching one even without an export directory)."""
    global _live_bus
    _live_bus = bus


def uninstall() -> None:
    """Disarm live streaming (idempotent)."""
    global _live_bus, _live_telemetry
    _live_bus = None
    _live_telemetry = None


def installed() -> Optional[TelemetryBus]:
    """The installed live bus, or None."""
    return _live_bus


def attached_telemetry():
    """The most recently live-wired pipeline (for ``/metrics``)."""
    return _live_telemetry


def wire(telemetry, interval_ms: float = DEFAULT_SNAPSHOT_MS) -> bool:
    """Wire ``telemetry`` to the installed bus; no-op when none is.

    Called by :func:`repro.telemetry.pipeline.attach_simulation` after
    attachment.  Publishes a ``run_start`` record carrying the
    pipeline's meta so dashboards can label the stream.
    """
    global _live_telemetry
    bus = _live_bus
    if bus is None:
        return False
    telemetry.trace.listener = SnapshotSampler(telemetry, bus, interval_ms)
    _live_telemetry = telemetry
    bus.publish({"type": "run_start", "meta": dict(telemetry.meta)})
    return True


# -- SSE wire format ---------------------------------------------------


def sse_format(event: str, data: Dict) -> str:
    """One Server-Sent-Events frame: ``event:`` + canonical JSON data.

    ``json.dumps`` never emits raw newlines, so the frame is always a
    single ``data:`` line.
    """
    payload = json.dumps(data, sort_keys=True)
    return f"event: {event}\ndata: {payload}\n\n"
