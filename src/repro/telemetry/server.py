"""The observability HTTP service (stdlib-only).

:class:`LiveService` wraps a threading ``http.server`` around one
telemetry directory: the run catalog under ``/api/runs``, the recorded
Prometheus scrapes under ``/metrics``, and any run's files streamed over
SSE under ``/events``.  A stream starts at the beginning of the run's
``trace.jsonl`` and ``snapshots.jsonl`` and follows both until the
export completes, so the one endpoint replays a finished run and
follows a run that a command (``--live-port``) is still writing.

Endpoints: ``/`` single-file HTML dashboard, ``/metrics`` Prometheus
text, ``/events`` SSE, ``/api/runs`` + ``/api/runs/<id>`` JSON catalog.
Everything runs on HTTP server threads that only read files, so
serving cannot perturb results.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.telemetry import catalog
from repro.telemetry.dashboard import DASHBOARD_HTML
from repro.telemetry.exporters import (
    METRICS_TEXT_FILE,
    SNAPSHOTS_FILE,
    TRACE_FILE,
)
from repro.telemetry.live import sse_format

#: Seconds between SSE keepalive comments while a stream waits.
KEEPALIVE_S = 5.0

#: Seconds between polls of a run that has not appeared or completed.
POLL_S = 0.1

#: Ceiling on one replay pacing sleep, so even speed=1 over a long
#: interval gap stays responsive to disconnects (seconds).
MAX_REPLAY_SLEEP_S = 1.0

#: Seconds :meth:`LiveService.stop` waits for open streams to finish.
DRAIN_S = 5.0


class _Tail:
    """The whole lines of a file that may still be growing."""

    __slots__ = ("path", "_fh", "_partial")

    def __init__(self, path: str):
        self.path = path
        self._fh = None
        self._partial = b""

    def read(self) -> List[Dict]:
        """Records of the whole lines written since the last call.

        A torn last line waits until its newline arrives.
        """
        if self._fh is None:
            try:
                self._fh = open(self.path, "rb")
            except OSError:
                return []
        records = []
        for line in self._fh:
            line = self._partial + line
            if not line.endswith(b"\n"):
                self._partial = line
                break
            self._partial = b""
            records.append(json.loads(line))
        return records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`LiveService`."""

    protocol_version = "HTTP/1.1"
    service: "LiveService" = None  # set on the per-service subclass

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr
        pass

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, doc: Dict, status: int = 200) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/":
                self._send(200, "text/html; charset=utf-8",
                           DASHBOARD_HTML.encode("utf-8"))
            elif url.path == "/metrics":
                self._get_metrics()
            elif url.path == "/api/runs":
                self._get_runs()
            elif url.path.startswith("/api/runs/"):
                self._get_run(url.path[len("/api/runs/"):])
            elif url.path == "/events":
                self._get_events(query)
            else:
                self._send_json({"error": f"no route {url.path}"}, 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    # -- endpoints -----------------------------------------------------

    def _get_metrics(self) -> None:
        text = self.service.metrics_text()
        self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                   text.encode("utf-8"))

    def _get_runs(self) -> None:
        runs = self.service.runs()
        self._send_json({
            "live": not all(info.complete for info in runs),
            "runs": [info.to_dict() for info in runs],
        })

    def _get_run(self, run_id: str) -> None:
        info = self.service.find_run(run_id)
        if info is None:
            self._send_json({"error": f"no run {run_id!r}"}, 404)
            return
        self._send_json(catalog.run_detail(info))

    def _get_events(self, query: Dict) -> None:
        run_id = query.get("replay", ["latest"])[0]
        speed = float(query.get("speed", ["0"])[0] or 0.0)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Access-Control-Allow-Origin", "*")
        # Unframed stream: the connection itself delimits the body.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.service.stream(self.wfile, run_id, speed)


class LiveService:
    """The observability HTTP service over one telemetry directory.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start`).
    """

    def __init__(self, telemetry_dir: str, port: int = 0,
                 host: str = "127.0.0.1"):
        self.telemetry_dir = telemetry_dir
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        #: Threads currently streaming ``/events``.
        self._streams = set()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "LiveService":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-live-:{self.port}", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, let open streams finish, and shut down.

        A stream of a completed run still sends its remaining frames
        and ``end``; one that waits for a run to appear or to grow
        stops waiting.  Each gets up to :data:`DRAIN_S` seconds.
        """
        self._stopping.set()
        self._httpd.shutdown()
        for thread in list(self._streams):
            thread.join(timeout=DRAIN_S)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- endpoint backends ---------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus exposition: the recorded ``metrics.prom`` scrapes."""
        parts = []
        for info in self.runs():
            path = os.path.join(info.path, METRICS_TEXT_FILE)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    parts.append(fh.read())
            except OSError:
                continue
        return "".join(parts) or "# no recorded metrics\n"

    def runs(self):
        """Catalog of the runs in the telemetry directory."""
        return catalog.scan_runs(self.telemetry_dir)

    def find_run(self, run_id: str):
        """Look up a run by id or name (``"latest"`` works too)."""
        return catalog.find_run(self.telemetry_dir, run_id)

    def stream(self, wfile, run_id: str, speed: float) -> None:
        """Stream one run's files to an SSE client.

        Waits for ``run_id`` to appear, then sends ``run_start``, the
        trace and metric frames merged by ``t``, and ``end`` once the
        export has completed; keepalive comments fill every
        :data:`KEEPALIVE_S` of waiting.  ``speed`` is simulated-ms per
        wall-ms: ``10`` replays a minute of sim time in six wall
        seconds; ``0`` (the default, and what CI uses) sends frames as
        soon as they are read.
        """
        self._streams.add(threading.current_thread())
        prev_t: Optional[float] = None
        quiet_since = time.monotonic()
        try:
            for frame in self._frames(run_id):
                if frame is None:
                    if time.monotonic() - quiet_since >= KEEPALIVE_S:
                        wfile.write(b": keepalive\n\n")
                        wfile.flush()
                        quiet_since = time.monotonic()
                    time.sleep(POLL_S)
                    continue
                event, data = frame
                t = data.get("t", data.get("record", {}).get("t"))
                if isinstance(t, (int, float)):
                    if (speed > 0 and prev_t is not None and t > prev_t
                            and not self._stopping.is_set()):
                        time.sleep(min((t - prev_t) / 1000.0 / speed,
                                       MAX_REPLAY_SLEEP_S))
                    prev_t = float(t)
                wfile.write(sse_format(event, data).encode("utf-8"))
                wfile.flush()
                quiet_since = time.monotonic()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self._streams.discard(threading.current_thread())

    def _frames(self, run_id: str) -> Iterator[Optional[Tuple[str, Dict]]]:
        """The run's SSE frames in order; None while nothing is new."""
        info = self.find_run(run_id)
        while info is None:
            if self._stopping.is_set():
                return
            yield None
            info = self.find_run(run_id)
        yield "run_start", {"type": "run_start", "meta": info.meta,
                            "run": info.run_id}
        # Follow the directory, not the id: a growing run's id changes.
        tails = (_Tail(os.path.join(info.path, TRACE_FILE)),
                 _Tail(os.path.join(info.path, SNAPSHOTS_FILE)))
        traces, metrics = deque(), deque()
        count = 0
        try:
            while True:
                complete = catalog.is_complete(info.path)
                traces.extend(tails[0].read())
                metrics.extend(tails[1].read())
                # A snapshot is written after the interval record it
                # follows, so it waits for a later trace record or the
                # end of the run; on equal ``t`` the trace goes first.
                while traces or (metrics and complete):
                    if metrics and (
                        not traces or metrics[0]["t"] < traces[0]["t"]
                    ):
                        yield "metrics", dict(metrics.popleft(),
                                              type="metrics")
                    else:
                        count += 1
                        yield "trace", {"type": "trace",
                                        "record": traces.popleft()}
                if complete:
                    yield "end", {"type": "end", "records": count}
                    return
                if (self._stopping.is_set()
                        and not catalog.is_complete(info.path)):
                    return
                yield None
        finally:
            for tail in tails:
                tail.close()
