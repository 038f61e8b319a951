"""Discrete-event simulation kernel.

A small, self-contained process-based discrete-event simulation (DES)
engine in the style of SimPy: simulation *processes* are Python
generators that ``yield`` events (timeouts, resource requests, other
processes) and are resumed by the :class:`~repro.sim.engine.Environment`
when those events fire.

The kernel is intentionally free of any database or networking
vocabulary; the cluster substrate (:mod:`repro.cluster`) builds on top
of it.

Public API
----------
- :class:`Environment` — event loop and simulation clock (one binary
  heap of pending events).
- :class:`Event`, :class:`Timeout`, :class:`Process` — awaitables.
- :class:`Resource` — a single server with a FIFO queue.
- :class:`RandomStreams` — named, reproducible random streams.
- :func:`pooled_timeout`, :func:`pooled_timeout_at` — timeouts drawn
  from the environment's free list, for hot paths.
- :mod:`repro.sim.stats` — online statistics and time series.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
    pooled_timeout,
    pooled_timeout_at,
)
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams
from repro.sim.stats import (
    OnlineStats,
    P2Quantile,
    TimeSeries,
    WindowStats,
    mean_confidence_interval,
)

__all__ = [
    "Environment",
    "Event",
    "OnlineStats",
    "P2Quantile",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "TimeSeries",
    "Timeout",
    "WindowStats",
    "mean_confidence_interval",
    "pooled_timeout",
    "pooled_timeout_at",
]
