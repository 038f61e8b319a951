"""The Server-Sent-Events wire format of the observability service.

:mod:`repro.telemetry.server` streams a run's recorded files as SSE
frames; this module holds the one frame encoder it uses.
"""

from __future__ import annotations

import json
from typing import Dict


def sse_format(event: str, data: Dict) -> str:
    """One Server-Sent-Events frame: ``event:`` + canonical JSON data.

    ``json.dumps`` never emits raw newlines, so the frame is always a
    single ``data:`` line.
    """
    payload = json.dumps(data, sort_keys=True)
    return f"event: {event}\ndata: {payload}\n\n"
