"""Unit tests for the per-node buffer manager and the §6 access protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufmgr.costs import CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry
from repro.bufmgr.manager import NO_GOAL_CLASS, NodeBufferManager

PAGE = 4096


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def make_manager(total_pages=8, policy="cost"):
    return NodeBufferManager(
        node_id=0,
        total_bytes=total_pages * PAGE,
        page_size=PAGE,
        clock=ManualClock(),
        global_heat=GlobalHeatRegistry(),
        costs=CostObserver(),
        is_last_copy=lambda page, node: False,
        policy=policy,
    )


def no_goal_bytes(mgr):
    return mgr.pool(NO_GOAL_CLASS).capacity * PAGE


def test_everything_starts_in_no_goal_pool():
    mgr = make_manager()
    assert no_goal_bytes(mgr) == 8 * PAGE
    assert mgr.total_dedicated_bytes() == 0


def test_miss_then_admit_lands_in_no_goal_without_dedicated():
    mgr = make_manager()
    hit, dropped = mgr.probe(1, class_id=2)
    assert not hit and dropped == []
    mgr.admit(1, class_id=2)
    assert mgr.holding_pool(1) == NO_GOAL_CLASS


def test_admit_lands_in_dedicated_pool_when_present():
    mgr = make_manager()
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    hit, _ = mgr.probe(1, class_id=2)
    assert not hit
    mgr.admit(1, class_id=2)
    assert mgr.holding_pool(1) == 2


def test_hit_in_own_dedicated_pool():
    mgr = make_manager()
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    mgr.admit(1, class_id=2)
    hit, dropped = mgr.probe(1, class_id=2)
    assert hit and dropped == []
    assert mgr.hits_by_class[2] == 1


def test_promotion_from_no_goal_pool():
    """§6: the page is acquired from the local no-goal buffer, from
    which it is removed, and inserted into the dedicated buffer."""
    mgr = make_manager()
    mgr.admit(1, class_id=2)            # no dedicated pool yet
    assert mgr.holding_pool(1) == NO_GOAL_CLASS
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    hit, dropped = mgr.probe(1, class_id=2)
    assert hit                           # no I/O needed
    assert mgr.holding_pool(1) == 2      # moved into the dedicated pool


def test_page_in_other_dedicated_pool_stays_there():
    """§6: cached in another dedicated buffer already -> hit in place."""
    mgr = make_manager()
    mgr.set_dedicated_bytes(2, 2 * PAGE)
    mgr.set_dedicated_bytes(3, 2 * PAGE)
    mgr.admit(1, class_id=2)
    hit, _ = mgr.probe(1, class_id=3)
    assert hit
    assert mgr.holding_pool(1) == 2


def test_evictions_leave_node_completely():
    """§6: replacement victims are dropped from the node's cache."""
    mgr = make_manager(total_pages=4)
    mgr.set_dedicated_bytes(2, 2 * PAGE)
    mgr.admit(1, class_id=2)
    mgr.admit(2, class_id=2)
    dropped = mgr.admit(3, class_id=2)
    assert len(dropped) == 1
    assert not mgr.contains(dropped[0])


def test_no_goal_pool_is_complement_of_dedicated():
    """Eq. 7: no-goal buffer = SIZE_i - sum of dedicated buffers."""
    mgr = make_manager(total_pages=10)
    mgr.set_dedicated_bytes(1, 3 * PAGE)
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    assert no_goal_bytes(mgr) == 3 * PAGE
    mgr.set_dedicated_bytes(1, 1 * PAGE)
    assert no_goal_bytes(mgr) == 5 * PAGE


def test_allocation_conflict_grants_partial():
    """Phase (e): allocate as much as possible, report the difference."""
    mgr = make_manager(total_pages=8)
    mgr.set_dedicated_bytes(1, 6 * PAGE)
    granted, _ = mgr.set_dedicated_bytes(2, 6 * PAGE)
    assert granted == 2 * PAGE


def test_shrinking_dedicated_pool_drops_pages():
    mgr = make_manager(total_pages=8)
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    for page in range(4):
        mgr.admit(page, class_id=2)
    granted, dropped = mgr.set_dedicated_bytes(2, 2 * PAGE)
    assert granted == 2 * PAGE
    assert len(dropped) == 2
    for page in dropped:
        assert not mgr.contains(page)


def test_dedicated_pool_to_zero_removes_pool():
    mgr = make_manager()
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    assert mgr.has_dedicated(2)
    mgr.set_dedicated_bytes(2, 0)
    assert not mgr.has_dedicated(2)
    assert no_goal_bytes(mgr) == 8 * PAGE


def test_no_goal_shrink_drops_pages_on_dedicated_growth():
    mgr = make_manager(total_pages=4)
    for page in range(4):
        mgr.admit(page, class_id=0)
    _, dropped = mgr.set_dedicated_bytes(1, 2 * PAGE)
    assert len(dropped) == 2


def test_cannot_resize_no_goal_directly():
    mgr = make_manager()
    with pytest.raises(ValueError):
        mgr.set_dedicated_bytes(NO_GOAL_CLASS, PAGE)
    with pytest.raises(ValueError):
        mgr.dedicated_bytes(NO_GOAL_CLASS)


def test_negative_allocation_rejected():
    mgr = make_manager()
    with pytest.raises(ValueError):
        mgr.set_dedicated_bytes(1, -1)


@pytest.mark.parametrize("policy", ["random", "clock", "2q"])
def test_unknown_policy_rejected(policy):
    with pytest.raises(ValueError):
        make_manager(policy=policy)


def test_hit_rate_per_class():
    mgr = make_manager()
    mgr.admit(1, class_id=0)
    mgr.probe(1, class_id=0)   # hit
    mgr.probe(2, class_id=0)   # miss
    assert mgr.hits_by_class == {0: 1}
    assert mgr.misses_by_class == {0: 1}
    assert 9 not in mgr.hits_by_class and 9 not in mgr.misses_by_class


def test_class_heat_created_on_demand():
    """§6: heat info for (class k, page p) exists only after access."""
    mgr = make_manager()
    mgr.set_dedicated_bytes(2, 4 * PAGE)
    assert mgr.class_heat.slot_of((2, 1)) is None
    mgr.admit(1, class_id=2)
    assert mgr.class_heat.slot_of((2, 1)) is not None
    assert mgr.class_heat.slot_of((3, 1)) is None


@pytest.mark.parametrize("policy", ["cost", "lru", "lruk"])
def test_protocol_works_with_every_policy(policy):
    mgr = make_manager(total_pages=4, policy=policy)
    mgr.set_dedicated_bytes(2, 2 * PAGE)
    for page in range(6):
        hit, _ = mgr.probe(page, class_id=2)
        if not hit:
            mgr.admit(page, class_id=2)
    assert 0 < len(mgr.cached_pages()) <= 4


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),    # class id
            st.integers(min_value=0, max_value=30),   # page id
        ),
        min_size=1,
        max_size=200,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),    # class id
            st.integers(min_value=0, max_value=8),    # pages to dedicate
        ),
        max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_where_index_consistent(accesses, allocations):
    """The page->pool index always matches the pools' actual content,
    and total cached pages never exceed the node's frames."""
    mgr = make_manager(total_pages=8)
    allocation_steps = list(allocations)
    for step, (class_id, page_id) in enumerate(accesses):
        if allocation_steps and step % 7 == 3:
            alloc_class, pages = allocation_steps.pop()
            mgr.set_dedicated_bytes(alloc_class, pages * PAGE)
        hit, _ = mgr.probe(page_id, class_id)
        if not hit:
            mgr.admit(page_id, class_id)
        # Invariants.
        cached = mgr.cached_pages()
        assert len(cached) <= 8
        for page in cached:
            pool_id = mgr.holding_pool(page)
            assert page in mgr.pool(pool_id)
        total = sum(
            len(pool) for pool in mgr._pools.values()
        )
        assert total == len(cached)
