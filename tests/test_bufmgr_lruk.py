"""Unit tests for the LRU-2 pool."""

import itertools

from repro.bufmgr.lruk import LrukPool


def make_clock():
    counter = itertools.count(1)
    return lambda: float(next(counter))


def test_pages_with_few_references_evicted_first():
    pool = LrukPool(capacity=2, clock=make_clock())
    pool.insert(1)      # 1 reference
    pool.insert(2)      # 1 reference
    pool.touch(1)       # 1 now has 2 references
    # 2 has infinite backward K-distance -> victim.
    assert pool.insert(3) == [2]
    assert 1 in pool


def test_victim_is_max_backward_k_distance():
    pool = LrukPool(capacity=2, clock=make_clock())
    pool.insert(1)      # t=1
    pool.insert(2)      # t=2
    pool.touch(1)       # t=3 -> history 1: [1, 3]
    pool.touch(2)       # t=4 -> history 2: [2, 4]
    pool.touch(2)       # t=5 -> history 2: [4, 5]
    # K-th most recent: page 1 at t=1, page 2 at t=4 -> evict 1.
    assert pool.insert(3) == [1]


def test_lru_among_underreferenced_pages():
    pool = LrukPool(capacity=2, clock=make_clock())
    pool.insert(1)      # t=1, 1 ref
    pool.insert(2)      # t=2, 1 ref
    # Both have infinite distance; the least recently used goes.
    assert pool.insert(3) == [1]


def test_backward_k_distance_inf_without_k_references():
    pool = LrukPool(capacity=2, clock=make_clock())
    pool.insert(1)      # t=1
    pool.touch(1)       # t=2 -> finite distance, K-th reference at t=1
    pool.insert(2)      # t=3 -> one reference: infinite distance
    # The more recent page goes first: its distance is infinite.
    assert pool.insert(3) == [2]


def test_discard_forgets_history():
    pool = LrukPool(capacity=2, clock=make_clock())
    pool.insert(2)      # t=1
    pool.touch(2)       # t=2 -> history 2: [1, 2]
    pool.insert(1)      # t=3
    pool.touch(1)       # t=4
    pool.remove(1)
    assert 1 not in pool
    pool.insert(1)      # t=5: re-insert starts fresh with one reference
    # With its old history page 1 ([4, 5]) would outrank page 2.
    assert pool.insert(3) == [1]

