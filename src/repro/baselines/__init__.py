"""Baseline partitioning strategies the paper compares against or
builds upon: fragment fencing [5], class fencing [6], and dynamic
tuning [8]."""

from typing import Dict

from repro.baselines.class_fencing import ClassFencingCoordinator
from repro.baselines.dynamic_tuning import DynamicTuningCoordinator
from repro.baselines.fragment_fencing import FragmentFencingCoordinator
from repro.cluster.cluster import Cluster
from repro.core.controller import GoalOrientedController

#: Coordinator class per baseline name.
COORDINATOR_TYPES = {
    "goal-oriented": None,  # the default Coordinator (LP-based)
    "fragment-fencing": FragmentFencingCoordinator,
    "class-fencing": ClassFencingCoordinator,
    "dynamic-tuning": DynamicTuningCoordinator,
}


def make_controller(
    name: str, cluster: Cluster, goals: Dict[int, float]
) -> GoalOrientedController:
    """Build a controller running the named partitioning strategy.

    ``name`` is one of :data:`COORDINATOR_TYPES`.  All strategies share
    the agent/coordinator plumbing; only the per-class proposal logic
    differs.
    """
    if name not in COORDINATOR_TYPES:
        raise ValueError(
            f"unknown strategy {name!r}; choose from "
            f"{sorted(COORDINATOR_TYPES)}"
        )
    controller = GoalOrientedController(cluster, goals)
    coordinator_cls = COORDINATOR_TYPES[name]
    if coordinator_cls is not None:
        for class_id, old in list(controller.coordinators.items()):
            controller.coordinators[class_id] = coordinator_cls(
                class_id=class_id,
                node_sizes=list(old.node_sizes),
                goal_ms=old.goal_ms,
                page_size=old.page_size,
            )
    return controller


__all__ = [
    "COORDINATOR_TYPES",
    "ClassFencingCoordinator",
    "DynamicTuningCoordinator",
    "FragmentFencingCoordinator",
    "make_controller",
]
