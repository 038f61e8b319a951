"""Declarative workload specification.

Operations are grouped into classes (§3): goal classes 1..K carry a
mean response time goal; class 0 is the no-goal class.  Each class
accesses an ordered page set with Zipfian skew, arrives independently
at every node with exponential inter-arrival times, and touches a fixed
number of pages per operation (the paper's base experiment uses 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bufmgr.manager import NO_GOAL_CLASS


@dataclass(frozen=True)
class ClassSpec:
    """One workload class."""

    class_id: int
    #: Mean response time goal in ms; None for the no-goal class.
    goal_ms: Optional[float]
    #: Ordered page set; rank 0 is the hottest page under skew.  A
    #: ``range`` or a tuple: it must be hashable (the spec is frozen),
    #: and a ``range`` holds no per-page object.
    pages: Sequence[int]
    #: Zipf skew parameter theta (0 = uniform).
    skew: float = 0.0
    #: Page accesses per operation.
    pages_per_op: int = 4
    #: Mean operations per millisecond arriving at *each* node.
    arrival_rate_per_node: float = 0.01
    #: Optional per-node arrival rates (overrides the scalar for the
    #: nodes listed; useful for asymmetric-load studies such as the
    #: §8 variance-objective extension).
    node_rates: Optional[Tuple[float, ...]] = None
    #: Probability that a page access is a write (§3 update model).
    #: Non-zero fractions require the generator to run operations as
    #: transactions through a :class:`repro.txn.TransactionManager`.
    write_fraction: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class ids are non-negative")
        if self.class_id == NO_GOAL_CLASS and self.goal_ms is not None:
            raise ValueError("class 0 is the no-goal class; it has no goal")
        if self.class_id != NO_GOAL_CLASS and self.goal_ms is None:
            raise ValueError(f"goal class {self.class_id} needs a goal")
        if self.goal_ms is not None and self.goal_ms <= 0:
            raise ValueError("response time goals must be positive")
        if not self.pages:
            raise ValueError("page set must not be empty")
        if self.pages_per_op < 1:
            raise ValueError("operations access at least one page")
        if self.arrival_rate_per_node <= 0:
            raise ValueError("arrival rate must be positive")
        if self.skew < 0:
            raise ValueError("skew must be non-negative")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must lie in [0, 1]")
        if self.node_rates is not None and any(
            r <= 0 for r in self.node_rates
        ):
            raise ValueError("per-node arrival rates must be positive")

    @property
    def is_goal_class(self) -> bool:
        """True for classes 1..K (classes with a response time goal)."""
        return self.class_id != NO_GOAL_CLASS

    def rate_for(self, node_id: int) -> float:
        """Arrival rate at ``node_id`` (per-node override or scalar)."""
        if self.node_rates is not None and node_id < len(self.node_rates):
            return self.node_rates[node_id]
        return self.arrival_rate_per_node


@dataclass
class WorkloadSpec:
    """A complete multiclass workload."""

    classes: List[ClassSpec] = field(default_factory=list)

    def __post_init__(self):
        ids = [c.class_id for c in self.classes]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate class ids")

    @property
    def goal_classes(self) -> List[ClassSpec]:
        """Classes 1..K, sorted by id."""
        return sorted(
            (c for c in self.classes if c.is_goal_class),
            key=lambda c: c.class_id,
        )

    def spec_for(self, class_id: int) -> ClassSpec:
        """Look up the spec of ``class_id``."""
        for spec in self.classes:
            if spec.class_id == class_id:
                return spec
        raise KeyError(class_id)

    def with_goal(self, class_id: int, goal_ms: float) -> "WorkloadSpec":
        """Copy of this spec with one class's goal replaced."""
        from dataclasses import replace

        return WorkloadSpec(
            classes=[
                replace(c, goal_ms=goal_ms) if c.class_id == class_id else c
                for c in self.classes
            ]
        )


def partition_pages(num_pages: int, num_sets: int) -> List[range]:
    """Split [0, num_pages) into ``num_sets`` disjoint contiguous sets.

    The sets are ``range`` objects: constant size, whatever the page
    count.
    """
    if num_sets < 1:
        raise ValueError("need at least one set")
    if num_pages < num_sets:
        raise ValueError("fewer pages than sets")
    bounds = [round(i * num_pages / num_sets) for i in range(num_sets + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(num_sets)]


def shared_pages(
    base: Sequence[int], other: Sequence[int], sharing: float
) -> Tuple[int, ...]:
    """Build a page set overlapping ``base`` by fraction ``sharing``.

    Used by the §7.4 data-sharing experiments: the returned set has the
    same size as ``other`` but its first ``sharing * len(other)`` pages
    are taken from ``base`` (the hot end under skew), the rest from
    ``other``.
    """
    if not 0.0 <= sharing <= 1.0:
        raise ValueError("sharing must lie in [0, 1]")
    n_shared = round(sharing * len(other))
    n_shared = min(n_shared, len(base))
    taken = list(base[:n_shared]) + list(other[: len(other) - n_shared])
    return tuple(taken)
