"""Unit tests for the cost-based benefit replacement (§6)."""

import random

import pytest

from repro.bufmgr.costbased import (
    HEAP_SLACK,
    REVALIDATE,
    BenefitModel,
    CostBasedPool,
)
from repro.bufmgr.costs import AccessLevel, CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_model(last_copies=(), node_id=0):
    clock = ManualClock()
    local = HeatTracker()
    registry = GlobalHeatRegistry()
    costs = CostObserver()
    model = BenefitModel(
        node_id=node_id,
        local_heat=local,
        global_heat=registry,
        costs=costs,
        is_last_copy=lambda page, node: page in last_copies,
        clock=clock,
    )
    return model, clock, local, registry, costs


def test_benefit_zero_for_cold_page():
    model, clock, *_ = make_model()
    clock.now = 100.0
    assert model.benefit(1) == 0.0


def test_benefit_grows_with_local_heat():
    model, clock, local, _, _ = make_model()
    local.record(1, 40.0)
    local.record(1, 50.0)   # heat = 2 / 10
    local.record(2, 0.0)
    local.record(2, 50.0)   # heat = 2 / 50
    clock.now = 50.0
    assert model.benefit(1) > model.benefit(2)


def test_last_copy_priced_higher():
    """Dropping the last cached copy forces disk accesses system-wide."""
    model, clock, local, registry, _ = make_model(last_copies={1})
    for page in (1, 2):
        local.record(page, 0.0)
        local.record(page, 10.0)
        registry.record(page, 0.0)
        registry.record(page, 10.0)
    clock.now = 10.0
    assert model.benefit(1) > model.benefit(2)


def test_benefit_uses_measured_costs():
    model, clock, local, _, costs = make_model()
    local.record(1, 0.0)
    local.record(1, 10.0)
    clock.now = 10.0
    before = model.benefit(1)
    # Remote accesses got much more expensive -> keeping pages locally
    # is worth more.
    for _ in range(50):
        costs.observe(AccessLevel.REMOTE, 5.0)
    after = model.benefit(1)
    assert after > before


def test_pool_evicts_lowest_benefit():
    model, clock, local, _, _ = make_model()
    pool = CostBasedPool(capacity=2, model=model)
    # Page 10 hot, page 20 cold.
    local.record(10, 0.0)
    local.record(10, 1.0)
    local.record(20, 0.0)
    clock.now = 50.0
    pool.insert(10)
    pool.insert(20)
    pool.touch(10)
    pool.touch(20)
    evicted = pool.insert(30)
    assert evicted == [20]
    assert 10 in pool


def test_pool_revalidates_stale_entries():
    """A page whose heat collapsed after insertion must become victim."""
    model, clock, local, _, _ = make_model()
    pool = CostBasedPool(capacity=2, model=model)
    local.record(1, 0.0)
    local.record(1, 1.0)
    local.record(2, 0.0)
    local.record(2, 1.0)
    clock.now = 1.0
    pool.insert(1)
    pool.insert(2)
    # Later, page 2 is reheated; page 1 cools down.
    clock.now = 1000.0
    local.record(2, 999.0)
    local.record(2, 1000.0)
    pool.touch(2)
    evicted = pool.insert(3)
    assert evicted == [1]


def test_pool_heap_compaction_keeps_consistency():
    model, clock, local, _, _ = make_model()
    pool = CostBasedPool(capacity=8, model=model)
    for round_ in range(40):
        clock.now = float(round_)
        for page in range(16):
            if page in pool:
                pool.touch(page)
            else:
                pool.insert(page)
    assert len(pool) == 8
    assert set(pool.page_ids()) <= set(range(16))


def test_touch_with_falling_benefit_surfaces_page():
    """A cooled page must not hide behind its stale high-priced entry.

    ``touch`` defers heap pushes when the estimate rises (the stale
    lower-priced entry surfaces no later than it should), but a falling
    estimate must enter the heap immediately — otherwise, with more
    pages than the ``REVALIDATE`` budget, the victim search never
    reaches the stale high-priced entry and the cold page escapes
    eviction.
    """
    model, clock, local, _, _ = make_model()
    others = range(2, REVALIDATE + 2)
    pool = CostBasedPool(capacity=REVALIDATE + 1, model=model)
    local.record(1, 9.5)
    local.record(1, 10.0)   # page 1 very hot at insert time
    for page in others:
        local.record(page, 0.0)
        local.record(page, 10.0)   # lukewarm
    clock.now = 10.0
    pool.insert(1)
    for page in others:
        pool.insert(page)
    # Much later the others are re-heated while page 1 went cold.
    clock.now = 1000.0
    for page in others:
        local.record(page, 999.0)
        local.record(page, 1000.0)
        pool.touch(page)    # rising estimate: deferred, no heap push
    pool.touch(1)           # falling estimate: pushed immediately
    assert pool.insert(100) == [1]
    assert all(page in pool for page in others)


class _NeverCompactingPool(CostBasedPool):
    """Reference pool: the same decisions, every stale entry kept."""

    __slots__ = ()

    def _bound_heap(self) -> None:
        pass


@pytest.mark.parametrize("seed", range(4))
def test_touch_heavy_heap_stays_bounded_and_evicts_alike(seed):
    """Falling estimates on hits keep the heap within its bound.

    Hits whose estimate falls push a heap entry each; a pool that only
    compacted on discard would collect them without bound between
    evictions.  The compacting pool must stay within
    ``2 * len(pool) + HEAP_SLACK`` entries after every operation and
    evict exactly the sequence of a pool that never compacts.
    """
    rng = random.Random(seed)
    last_copies = set()
    model, clock, local, registry, costs = make_model(last_copies)
    costs.observe(AccessLevel.LOCAL, 0.1)
    costs.observe(AccessLevel.REMOTE, 1.0)
    costs.observe(AccessLevel.DISK, 20.0)
    capacity = 12
    pool = CostBasedPool(capacity=capacity, model=model)
    reference = _NeverCompactingPool(capacity=capacity, model=model)
    evicted, evicted_ref = [], []
    peak_ref_heap = 0
    for step in range(4000):
        clock.now += rng.uniform(0.0, 2.0)
        page = rng.randrange(3 * capacity)
        action = rng.random()
        if action < 0.1:
            local.record(page, clock.now)
            registry.record(page, clock.now)
        if action < 0.3:
            last_copies.symmetric_difference_update({page})
        if page in pool:
            assert page in reference
            # No new access is recorded for most hits, so the page's
            # heat, and with it the estimate, falls.
            pool.touch(page)
            reference.touch(page)
        elif action < 0.15:
            evicted.extend(pool.insert(page))
            evicted_ref.extend(reference.insert(page))
        assert len(pool._heap) <= 2 * len(pool) + HEAP_SLACK
        peak_ref_heap = max(peak_ref_heap, len(reference._heap))
    assert evicted == evicted_ref
    assert len(evicted) > 50
    assert peak_ref_heap > 2 * (2 * capacity + HEAP_SLACK)
