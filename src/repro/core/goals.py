"""Service level agreements and per-class performance goals.

Users express requirements as response time constraints per class
(§1, [20]): each goal class carries a mean response time goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bufmgr.manager import NO_GOAL_CLASS


@dataclass
class ClassGoal:
    """Mutable response time goal of one goal class."""

    class_id: int
    goal_ms: float

    def __post_init__(self):
        if self.class_id == NO_GOAL_CLASS:
            raise ValueError("the no-goal class has no goal")
        if self.goal_ms <= 0:
            raise ValueError("response time goals must be positive")

    def satisfied(self, observed_ms: float, tolerance_ms: float = 0.0) -> bool:
        """True if the observed RT is within the goal (+ tolerance)."""
        return observed_ms <= self.goal_ms + tolerance_ms


@dataclass
class ServiceLevelAgreement:
    """The set of all class goals in force."""

    goals: Dict[int, ClassGoal] = field(default_factory=dict)

    def set_goal(self, class_id: int, goal_ms: float) -> None:
        """Install or change the goal of ``class_id``."""
        self.goals[class_id] = ClassGoal(class_id, goal_ms)

    def goal_of(self, class_id: int) -> Optional[float]:
        """Goal of the class in ms, or None for the no-goal class."""
        goal = self.goals.get(class_id)
        return goal.goal_ms if goal else None
