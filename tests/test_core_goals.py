"""Unit tests for service level agreements and class goals."""

import pytest

from repro.core.goals import ClassGoal, ServiceLevelAgreement


def test_no_goal_class_cannot_have_goal():
    with pytest.raises(ValueError):
        ClassGoal(class_id=0, goal_ms=5.0)


def test_goal_must_be_positive():
    with pytest.raises(ValueError):
        ClassGoal(class_id=1, goal_ms=0.0)


def test_satisfied_with_tolerance():
    goal = ClassGoal(class_id=1, goal_ms=10.0)
    assert goal.satisfied(10.0)
    assert goal.satisfied(10.5, tolerance_ms=1.0)
    assert not goal.satisfied(11.5, tolerance_ms=1.0)


def test_sla_set_goal_overwrites():
    sla = ServiceLevelAgreement()
    sla.set_goal(1, 5.0)
    assert sla.goal_of(1) == 5.0
    assert sla.goal_of(0) is None
    sla.set_goal(1, 8.0)
    assert sla.goal_of(1) == 8.0
