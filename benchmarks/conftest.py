"""Shared benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper at
a reduced-but-faithful scale (fewer replications / intervals than the
``python -m repro`` commands, which run the full protocol).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s

or, to check every shape assertion without timing (as CI does)::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable -q
"""

from __future__ import annotations

import pytest

from repro.cluster.config import NodeParameters, SystemConfig
from repro.experiments.calibration import GoalRange


@pytest.fixture(scope="session")
def paper_config() -> SystemConfig:
    """The exact §7.1 environment."""
    return SystemConfig()


@pytest.fixture(scope="session")
def bench_config() -> SystemConfig:
    """A 2x-reduced environment for the slower closed-loop benches."""
    return SystemConfig(
        num_pages=1000,
        node=NodeParameters(buffer_bytes=1024 * 1024),
        observation_interval_ms=4000.0,
    )


@pytest.fixture(scope="session")
def paper_goal_range(paper_config) -> GoalRange:
    """Calibrated goal band for the §7.1 workload (computed once)."""
    from repro.experiments.calibration import calibrate_goal_range
    from repro.experiments.runner import default_workload

    workload = default_workload(paper_config)
    return calibrate_goal_range(
        workload, class_id=1, config=paper_config, seed=100,
        warmup_ms=40_000, measure_ms=60_000,
    )
