"""Unit tests for heat tracking and the global heat registry."""

import random
from collections import deque

import pytest

from repro.bufmgr.heat import (
    UPDATE_THRESHOLD,
    GlobalHeatRegistry,
    HeatTracker,
)


def test_unknown_key_has_zero_heat():
    tracker = HeatTracker()
    assert tracker.heat("p", now=10.0) == 0.0


def test_heat_is_accesses_per_time_unit():
    tracker = HeatTracker()
    tracker.record("p", now=0.0)
    tracker.record("p", now=10.0)
    # 2 accesses over a 10 ms span.
    assert tracker.heat("p", now=10.0) == pytest.approx(0.2)


def test_heat_decays_with_time():
    tracker = HeatTracker()
    tracker.record("p", now=0.0)
    tracker.record("p", now=10.0)
    early = tracker.heat("p", now=10.0)
    late = tracker.heat("p", now=100.0)
    assert late < early


def test_heat_window_keeps_only_k_newest():
    tracker = HeatTracker()
    tracker.record("p", now=0.0)
    tracker.record("p", now=100.0)
    tracker.record("p", now=110.0)
    # Span is from t=100 (oldest of the 2 kept) to now.
    assert tracker.heat("p", now=110.0) == pytest.approx(2 / 10)


def test_hot_burst_at_same_instant():
    tracker = HeatTracker()
    tracker.record("p", now=5.0)
    tracker.record("p", now=5.0)
    assert tracker.heat("p", now=5.0) == 2.0


def test_forget_deletes_bookkeeping():
    tracker = HeatTracker()
    tracker.record("p", now=1.0)
    assert tracker.slot_of("p") is not None
    tracker.forget("p")
    assert tracker.slot_of("p") is None
    assert len(tracker) == 0
    tracker.forget("p")  # idempotent


def test_composite_keys_for_class_heat():
    """§6: class heat is kept per (class, page), created on demand."""
    tracker = HeatTracker()
    tracker.record((1, 42), now=0.0)
    tracker.record((2, 42), now=0.0)
    tracker.record((1, 42), now=4.0)
    assert tracker.heat((1, 42), now=4.0) == pytest.approx(0.5)
    assert tracker.heat((2, 42), now=4.0) > 0.0
    assert tracker.heat((3, 42), now=4.0) == 0.0


def test_global_registry_heat():
    registry = GlobalHeatRegistry()
    registry.record(7, now=0.0)
    registry.record(7, now=5.0)
    assert registry.heat(7, now=5.0) == pytest.approx(0.4)


def test_global_registry_threshold_updates():
    """Dissemination messages fire once per threshold accesses."""
    updates = []
    registry = GlobalHeatRegistry(on_update=lambda: updates.append(1))
    for i in range(3 * UPDATE_THRESHOLD):
        registry.record(1, now=float(i))
    assert len(updates) == 3


def test_global_registry_threshold_per_page():
    updates = []
    registry = GlobalHeatRegistry(on_update=lambda: updates.append(1))
    for i in range(UPDATE_THRESHOLD - 1):
        registry.record(1, now=float(i))
    registry.record(2, now=0.0)
    assert updates == []  # neither page reached its own threshold
    registry.record(1, now=100.0)
    assert len(updates) == 1


def test_global_registry_forget_deletes_bookkeeping():
    registry = GlobalHeatRegistry()
    registry.record(7, now=0.0)
    registry.record(7, now=1.0)
    assert registry._tracker.slot_of(7) is not None
    assert registry.pending_count == 1
    registry.forget(7)
    assert registry._tracker.slot_of(7) is None
    assert registry.heat(7, now=2.0) == 0.0
    assert registry.pending_count == 0
    assert len(registry) == 0
    registry.forget(7)  # idempotent


def test_global_registry_pending_bounded_by_threshold_cycle():
    """Reaching the threshold removes the page's pending counter."""
    registry = GlobalHeatRegistry()
    for i in range(UPDATE_THRESHOLD):
        registry.record(1, now=float(i))
    # Counter cycled through the threshold: no key left behind.
    assert registry.pending_count == 0
    registry.record(1, now=100.0)
    assert registry.pending_count == 1


def test_global_registry_threshold_restarts_after_forget():
    """forget() discards part-way dissemination progress with the page."""
    updates = []
    registry = GlobalHeatRegistry(on_update=lambda: updates.append(1))
    registry.record(1, now=0.0)
    registry.record(1, now=1.0)
    assert registry.pending_count == 1
    registry.forget(1)
    assert registry.pending_count == 0
    for i in range(UPDATE_THRESHOLD - 1):
        registry.record(1, now=2.0 + i)
    assert updates == []  # counter restarted from zero
    registry.record(1, now=100.0)
    assert len(updates) == 1
    assert registry.pending_count == 0


# -- columnar vs. deque-oracle parity and churn boundedness ------------


class _DequeHeatTracker:
    """Reference LRU-2 tracker: one boxed deque of access times per key.

    The oracle for the columnar :class:`HeatTracker`, which must
    reproduce its ``len(history) / span`` floats bit for bit.
    """

    def __init__(self):
        self._history = {}

    def record(self, key, now):
        history = self._history.get(key)
        if history is None:
            history = self._history[key] = deque(maxlen=2)
        history.append(now)

    def heat(self, key, now):
        history = self._history.get(key)
        if history is None:
            return 0.0
        span = now - history[0]
        if span <= 0.0:
            return float(len(history))
        return len(history) / span

    def forget(self, key):
        self._history.pop(key, None)

    def tracked(self, key):
        return key in self._history

    def __len__(self):
        return len(self._history)


def test_columnar_matches_deque_tracker_on_random_history():
    rng = random.Random(7)
    columnar = HeatTracker()
    boxed = _DequeHeatTracker()
    keys = [f"p{i}" for i in range(40)] + [(1, i) for i in range(10)]
    now = 0.0
    for _ in range(3_000):
        now += rng.expovariate(1.0)
        key = rng.choice(keys)
        op = rng.random()
        if op < 0.70:
            columnar.record(key, now)
            boxed.record(key, now)
        elif op < 0.85:
            columnar.forget(key)
            boxed.forget(key)
        else:
            probe = rng.choice(keys)
            # Bit-identical, not approximately equal: the columnar
            # arithmetic (1/span, 2/span) must reproduce the boxed
            # len/span floats exactly.
            assert columnar.heat(probe, now) == boxed.heat(probe, now)
            assert (columnar.slot_of(probe) is not None) == boxed.tracked(
                probe
            )
    for key in keys:
        assert columnar.heat(key, now) == boxed.heat(key, now)
    assert len(columnar) == len(boxed)


def test_columnar_single_access_parity_at_same_instant():
    columnar = HeatTracker()
    boxed = _DequeHeatTracker()
    for tracker in (columnar, boxed):
        tracker.record("p", now=5.0)
    # span == 0 on both layouts -> len(history) exactly.
    assert columnar.heat("p", 5.0) == boxed.heat("p", 5.0) == 1.0
    for tracker in (columnar, boxed):
        tracker.record("p", now=5.0)
    assert columnar.heat("p", 5.0) == boxed.heat("p", 5.0) == 2.0


def test_tracker_churn_keeps_columns_bounded():
    tracker = HeatTracker()
    # 50 concurrently live keys, churned through 20k generations.
    for generation in range(20_000):
        key = ("page", generation)
        tracker.record(key, float(generation))
        tracker.record(key, generation + 0.5)
        if generation >= 50:
            tracker.forget(("page", generation - 50))
    assert len(tracker) == 50
    # Columns are bounded by the *peak* live count, not total churn.
    assert tracker.column_slots <= 51


def test_registry_churn_keeps_columns_and_pending_bounded():
    updates = []
    registry = GlobalHeatRegistry(on_update=lambda: updates.append(1))
    for generation in range(10_000):
        registry.record(generation, float(generation))
        registry.record(generation, generation + 0.25)
        if generation >= 64:
            registry.forget(generation - 64)
    assert len(registry) == 64
    assert registry._tracker.column_slots <= 65
    # Two accesses per page, below the threshold: every page stays
    # pending and forget reclaims its counter, so pending tracks the
    # live window.
    assert registry.pending_count == 64
    assert not updates


def test_registry_forget_resets_pending_counter():
    registry = GlobalHeatRegistry()
    for _ in range(UPDATE_THRESHOLD - 1):
        registry.record(7, 1.0)
    assert registry.pending_count == 1
    registry.forget(7)
    assert registry.pending_count == 0
    assert registry._tracker.slot_of(7) is None
    # Re-tracking the page starts the dissemination count from zero:
    # as many accesses again stay below the threshold.
    updates = []
    registry._on_update = lambda: updates.append(1)
    for _ in range(UPDATE_THRESHOLD - 1):
        registry.record(7, 2.0)
    assert not updates
    assert registry.pending_count == 1


def test_tracker_clear_releases_columns():
    tracker = HeatTracker()
    for i in range(1_000):
        tracker.record(i, float(i))
    assert tracker.column_slots == 1_000
    tracker.clear()
    assert tracker.column_slots == 0
    assert len(tracker) == 0
    tracker.record("fresh", 1.0)
    assert tracker.heat("fresh", 2.0) == 1.0
