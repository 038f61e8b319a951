"""Unit tests for workload specifications and page-set helpers."""

import pytest

from repro.workload.spec import (
    ClassSpec,
    WorkloadSpec,
    partition_pages,
    shared_pages,
)


def goal_class(**overrides):
    defaults = dict(
        class_id=1, goal_ms=5.0, pages=(0, 1, 2, 3), skew=0.0,
        pages_per_op=4, arrival_rate_per_node=0.01,
    )
    defaults.update(overrides)
    return ClassSpec(**defaults)


def test_no_goal_class_must_not_have_goal():
    with pytest.raises(ValueError):
        ClassSpec(class_id=0, goal_ms=3.0, pages=(0,))


def test_goal_class_needs_goal():
    with pytest.raises(ValueError):
        ClassSpec(class_id=1, goal_ms=None, pages=(0,))


@pytest.mark.parametrize(
    "overrides",
    [
        {"goal_ms": 0.0},
        {"goal_ms": -1.0},
        {"pages": ()},
        {"pages_per_op": 0},
        {"arrival_rate_per_node": 0.0},
        {"skew": -0.5},
        {"class_id": -1},
    ],
)
def test_invalid_class_spec_rejected(overrides):
    with pytest.raises(ValueError):
        goal_class(**overrides)


def test_workload_spec_goal_classes_sorted():
    spec = WorkloadSpec(classes=[
        goal_class(class_id=2),
        ClassSpec(class_id=0, goal_ms=None, pages=(0,)),
        goal_class(class_id=1),
    ])
    assert [c.class_id for c in spec.goal_classes] == [1, 2]
    assert [c.class_id for c in spec.classes if not c.is_goal_class] == [0]


def test_duplicate_class_ids_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(classes=[goal_class(), goal_class()])


def test_spec_for_lookup():
    spec = WorkloadSpec(classes=[goal_class()])
    assert spec.spec_for(1).goal_ms == 5.0
    with pytest.raises(KeyError):
        spec.spec_for(9)


def test_with_goal_replaces_one_class():
    spec = WorkloadSpec(classes=[goal_class()])
    updated = spec.with_goal(1, 9.0)
    assert updated.spec_for(1).goal_ms == 9.0
    assert spec.spec_for(1).goal_ms == 5.0  # original untouched


def test_partition_pages_disjoint_and_complete():
    sets = partition_pages(10, 3)
    flat = [p for s in sets for p in s]
    assert sorted(flat) == list(range(10))
    assert len(sets) == 3
    assert all(len(s) >= 3 for s in sets)


def test_partition_pages_validation():
    with pytest.raises(ValueError):
        partition_pages(2, 3)
    with pytest.raises(ValueError):
        partition_pages(5, 0)


def test_shared_pages_zero_is_own_set():
    own = (10, 11, 12, 13)
    assert shared_pages((0, 1, 2, 3), own, 0.0) == own


def test_shared_pages_full_is_base_set():
    base = (0, 1, 2, 3)
    shared = shared_pages(base, (10, 11, 12, 13), 1.0)
    assert shared == base


def test_shared_pages_half():
    base = (0, 1, 2, 3)
    own = (10, 11, 12, 13)
    shared = shared_pages(base, own, 0.5)
    assert len(shared) == 4
    assert shared[:2] == (0, 1)       # hot end comes from the base set
    assert set(shared[2:]) <= set(own)


def test_shared_pages_fraction_validated():
    with pytest.raises(ValueError):
        shared_pages((0,), (1,), 1.5)
