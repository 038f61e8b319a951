"""Canned workload mixes for examples, tests, and experiments.

These encode the scenarios the paper's introduction motivates: OLTP
transactions with firm deadlines next to resource-hungry decision
support, plus background work without a goal.
"""

from __future__ import annotations

from repro.cluster.config import SystemConfig
from repro.workload.spec import ClassSpec, WorkloadSpec, partition_pages


def oltp_dss_mix(
    config: SystemConfig,
    oltp_goal_ms: float = 2.5,
    dss_goal_ms: float = 40.0,
    oltp_rate: float = 0.04,
    dss_rate: float = 0.002,
    background_rate: float = 0.005,
) -> WorkloadSpec:
    """OLTP + decision support + background (the §1 motivation).

    - class 1 "oltp": short (2-page) operations over a hot, skewed set
      with a tight goal;
    - class 2 "dss": long (16-page) scans over a uniform set with a
      loose goal;
    - class 0: background work without a goal.
    """
    oltp_pages, dss_pages, other_pages = partition_pages(
        config.num_pages, 3
    )
    return WorkloadSpec(classes=[
        ClassSpec(
            class_id=0, goal_ms=None, pages=other_pages,
            pages_per_op=4, arrival_rate_per_node=background_rate,
            name="background",
        ),
        ClassSpec(
            class_id=1, goal_ms=oltp_goal_ms, pages=oltp_pages,
            skew=0.8, pages_per_op=2,
            arrival_rate_per_node=oltp_rate, name="oltp",
        ),
        ClassSpec(
            class_id=2, goal_ms=dss_goal_ms, pages=dss_pages,
            skew=0.0, pages_per_op=16,
            arrival_rate_per_node=dss_rate, name="dss",
        ),
    ])
