"""Labeled metrics instruments: counters, gauges, histograms.

The registry is the metrics half of :mod:`repro.telemetry`.  Instruments
are memoized by ``(name, labels)`` so hot paths can cache the returned
object and pay only an attribute access plus the instrument update.
Histograms reuse the streaming estimators of :mod:`repro.sim.stats`
(Welford moments + a P² p95 marker), so no samples are retained.

Everything here is deterministic: no wall clock, no randomness, and
:meth:`MetricsRegistry.samples` yields instruments in sorted
``(name, labels)`` order regardless of creation order.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from repro.sim.stats import OnlineStats, P2Quantile

#: Canonical label tuple: sorted (key, value-as-string) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class Gauge:
    """A point-in-time value, set at collection time."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A streaming distribution: count/sum/min/max/stddev plus p95."""

    __slots__ = ("stats", "p95")

    def __init__(self):
        self.stats = OnlineStats()
        self.p95 = P2Quantile(0.95)

    def add(self, value: float) -> None:
        """Fold one sample into the distribution."""
        self.stats.add(value)
        self.p95.add(value)

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self.stats.count

    @property
    def sum(self) -> float:
        """Sum of all samples (mean × count)."""
        return self.stats.mean * self.stats.count


def _label_set(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """All instruments of one telemetry pipeline, keyed by (name, labels)."""

    def __init__(self):
        self._instruments: Dict[Tuple[str, LabelSet], Tuple[str, object]] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object],
             factory: Callable[[], object]):
        key = (name, _label_set(labels))
        entry = self._instruments.get(key)
        if entry is None:
            entry = (kind, factory())
            self._instruments[key] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {entry[0]}"
            )
        return entry[1]

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under ``(name, labels)``."""
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram registered under ``(name, labels)``."""
        return self._get("histogram", name, labels, Histogram)

    def samples(self) -> Iterator[Tuple[str, str, LabelSet, object]]:
        """Yield ``(kind, name, labels, instrument)`` in sorted order."""
        for (name, labels), (kind, instrument) in sorted(
            self._instruments.items()
        ):
            yield kind, name, labels, instrument
