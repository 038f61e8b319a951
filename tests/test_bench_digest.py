"""The repository benchmark's simulations are pinned bit for bit.

``perf/bench.py`` runs four workloads; every repetition of one seed
ends with the same digest of the per-interval controller series, the
per-level access counts and the clock.  A speed-up must leave those
simulations unchanged, so this test runs a short seed-0 repetition of
each workload and compares its digest with the constant recorded at
commit be25089 (before handler-driven operations).  A change that alters
simulated behaviour fails here, not only in ``perf/compare.py``.
"""

import os
import sys

import pytest

PERF = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perf")
if PERF not in sys.path:
    sys.path.insert(0, PERF)

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: ``bench.run_rep(WORKLOADS[name], 0, intervals=2)["digest"]``.
DIGESTS = {
    "figure2":
        "955279b5001f003d7749cdc494019a0d903e69eb9d70da06e4e31c6a0ac4eb86",
    "hot-64n":
        "a5d20d11e7a75bd140b0623d3592f3a2d8916c0769a79659c4515b22bfb99457",
    "evict-16n":
        "e4b0db5a7c9cdfa39d505a609a3ee3850a60311676a4cc968800594a3cc9ffc5",
    "multiclass-rw":
        "9a4a0fd3f3b24f39e0b6c8201a29e6ebdbe9181b422f49f0a4b89957dd6a39bf",
}


def test_every_workload_is_pinned():
    assert set(DIGESTS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_digest_unchanged(name):
    rep = bench.run_rep(WORKLOADS[name], 0, intervals=2)
    assert rep["problems"] == []
    assert rep["digest"] == DIGESTS[name]
