"""Canned workload mixes for examples, tests, and experiments.

These encode the scenarios the paper's introduction motivates: OLTP
transactions with firm deadlines next to resource-hungry decision
support, plus background work without a goal.
"""

from __future__ import annotations

from repro.cluster.config import SystemConfig
from repro.workload.spec import ClassSpec, WorkloadSpec, partition_pages


#: Goals (ms) of the OLTP and DSS classes.
OLTP_GOAL_MS = 2.5
DSS_GOAL_MS = 40.0
#: Operations per ms arriving at each node, per class.
OLTP_RATE = 0.04
DSS_RATE = 0.002
BACKGROUND_RATE = 0.005


def oltp_dss_mix(config: SystemConfig) -> WorkloadSpec:
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
            pages_per_op=4, arrival_rate_per_node=BACKGROUND_RATE,
            name="background",
        ),
        ClassSpec(
            class_id=1, goal_ms=OLTP_GOAL_MS, pages=oltp_pages,
            skew=0.8, pages_per_op=2,
            arrival_rate_per_node=OLTP_RATE, name="oltp",
        ),
        ClassSpec(
            class_id=2, goal_ms=DSS_GOAL_MS, pages=dss_pages,
            skew=0.0, pages_per_op=16,
            arrival_rate_per_node=DSS_RATE, name="dss",
        ),
    ])
