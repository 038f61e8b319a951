"""Unit + property tests for the LRU pool and the pool ABC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufmgr.lru import LruPool


def test_lru_evicts_least_recently_used():
    pool = LruPool(capacity=2)
    assert pool.insert(1) == []
    assert pool.insert(2) == []
    pool.touch(1)          # 2 is now least recently used
    assert pool.insert(3) == [2]
    assert 1 in pool and 3 in pool and 2 not in pool


def test_lru_insert_of_cached_page_is_touch():
    pool = LruPool(capacity=2)
    pool.insert(1)
    pool.insert(2)
    pool.insert(1)  # refreshes 1 instead of evicting
    assert pool.insert(3) == [2]


def test_zero_capacity_never_stores():
    pool = LruPool(capacity=0)
    assert pool.insert(1) == [1]
    assert len(pool) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LruPool(capacity=-1)


def test_resize_shrink_evicts_lru_order():
    pool = LruPool(capacity=4)
    for page in (1, 2, 3, 4):
        pool.insert(page)
    pool.touch(1)
    evicted = pool.resize(2)
    assert evicted == [2, 3]
    assert set(pool.page_ids()) == {4, 1}
    assert pool.capacity == 2


def test_resize_grow_keeps_pages():
    pool = LruPool(capacity=2)
    pool.insert(1)
    pool.insert(2)
    assert pool.resize(5) == []
    assert pool.insert(3) == []


def test_remove_present_and_absent():
    pool = LruPool(capacity=2)
    pool.insert(1)
    assert pool.remove(1) is True
    assert pool.remove(1) is False
    assert len(pool) == 0


@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.integers(min_value=0, max_value=40),
             min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_property_pool_never_exceeds_capacity(capacity, pages):
    """Invariant: |pool| <= capacity at all times."""
    pool = LruPool(capacity)
    for page in pages:
        pool.insert(page)
        assert len(pool) <= capacity


@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.integers(min_value=0, max_value=40),
             min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_property_insert_returns_exactly_the_evicted(capacity, pages):
    """Pages leave the pool exactly via insert()'s return value."""
    pool = LruPool(capacity)
    present = set()
    for page in pages:
        evicted = pool.insert(page)
        present.add(page)
        present -= set(evicted)
        assert present == set(pool.page_ids())


@given(
    st.lists(st.integers(min_value=0, max_value=30),
             min_size=1, max_size=200),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100)
def test_property_resize_to_smaller_keeps_subset(pages, new_capacity):
    pool = LruPool(16)
    for page in pages:
        pool.insert(page)
    before = set(pool.page_ids())
    evicted = pool.resize(new_capacity)
    after = set(pool.page_ids())
    assert after <= before
    assert after | set(evicted) == before
    assert len(after) <= new_capacity
