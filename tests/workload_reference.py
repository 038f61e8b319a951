"""Workload references for the tests.

``uniform_multiclass``: K goal classes of identical shape on disjoint
page sets let a test scale the number of goal classes without changing
anything else; the three-goal integration test drives the controller
with it.

``zipf_sample``: the sequential Zipf draw the block-drawing front-end
is checked against.

``zipf_probability``: the exact Zipf law the alias tables must realise.

``vose_alias_lists``: Vose's alias construction over plain lists, the
oracle the typed tables of :class:`repro.workload.zipf.ZipfSampler`
must equal element for element.
"""

from __future__ import annotations

from repro.cluster.config import SystemConfig
from repro.workload.spec import ClassSpec, WorkloadSpec, partition_pages


def uniform_multiclass(
    config: SystemConfig,
    goals_ms,
    pages_per_op: int = 4,
    skew: float = 0.0,
    arrival_rate_per_node: float = 0.02,
) -> WorkloadSpec:
    """K goal classes with identical shapes on disjoint page sets.

    ``goals_ms`` is a sequence of response time goals; class ids are
    1..K and a no-goal class 0 takes the last page partition.
    """
    goals = list(goals_ms)
    sets = partition_pages(config.num_pages, len(goals) + 1)
    classes = [
        ClassSpec(
            class_id=0, goal_ms=None, pages=sets[-1], skew=skew,
            pages_per_op=pages_per_op,
            arrival_rate_per_node=arrival_rate_per_node,
            name="no-goal",
        )
    ]
    for i, goal_ms in enumerate(goals, start=1):
        classes.append(
            ClassSpec(
                class_id=i, goal_ms=goal_ms, pages=sets[i - 1],
                skew=skew, pages_per_op=pages_per_op,
                arrival_rate_per_node=arrival_rate_per_node,
                name=f"class-{i}",
            )
        )
    return WorkloadSpec(classes=classes)


def zipf_sample(sampler, rng) -> int:
    """Draw one rank from ``sampler`` with one uniform from ``rng``.

    The sequential alias-method draw: the reference that
    :meth:`repro.workload.zipf.ZipfSampler.sample_from_uniform` must
    match variate for variate.
    """
    scaled = rng.random() * sampler.num_items
    column = int(scaled)
    if scaled - column < sampler._accept[column]:
        return column
    return sampler._alias[column]


def zipf_probability(sampler, rank: int) -> float:
    """Exact access probability of ``rank`` (0-based) under ``sampler``."""
    if not 0 <= rank < sampler.num_items:
        raise ValueError("rank out of range")
    theta = sampler.theta
    total = sum(r ** (-theta) for r in range(1, sampler.num_items + 1))
    return (rank + 1) ** (-theta) / total


def vose_alias_lists(num_items: int, theta: float):
    """``(total, accept, alias)`` of Vose's construction, as lists.

    The list tables ``ZipfSampler`` stored before it kept them as typed
    arrays.
    """
    n = num_items
    weights = [rank ** (-theta) for rank in range(1, n + 1)]
    total = sum(weights)
    accept = [0.0] * n
    alias = list(range(n))
    scaled = [w * n / total for w in weights]
    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in large:
        accept[i] = 1.0
    for i in small:
        accept[i] = 1.0
    return total, accept, alias
