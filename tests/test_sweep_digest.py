"""Pinned digests of every experiment sweep, fork or cold, for any ``jobs``.

Each sweep below runs at tiny settings (3 nodes, 400 pages, 256 KB
buffers, 2 s intervals, 4 s warm-up) with telemetry exported.  Its pin
is the SHA-256 of ``repr`` of the returned points followed by every
file of the telemetry tree (relative path and bytes, in sorted walk
order) except the metric snapshots, ``snapshots.jsonl``, which runs
stream alongside the trace and which postdate the pins.  The constants were recorded before the sweeps were routed
through one executor; they must not change between the fork and the
cold path or for any ``jobs`` value (1 or 2), which pins the point
order, the per-point directory labels, the merged trace and the
sweep-level ``prescreen`` record together.  The executor forks
wherever the platform allows; the cold cases run as a platform
without ``os.fork`` does, with ``forkserver.supports_fork`` patched to
return False.

The one field left out is the ``prescreen`` record's ``ms``: it is the
wall-clock time the analytic solver took, so it differs between any
two runs of the same sweep.
"""

import hashlib
import json
import os

import pytest

from repro.cluster.config import NodeParameters, SystemConfig
from repro.experiments import (
    figure2,
    forkserver,
    multiclass,
    resilience,
    scaling,
)
from repro.experiments.calibration import GoalRange

CONFIG = SystemConfig(
    num_nodes=3,
    num_pages=400,
    node=NodeParameters(buffer_bytes=256 * 1024),
    observation_interval_ms=2000.0,
)
WARMUP_MS = 4000.0
GOAL_RANGE = GoalRange(1, 2.0, 8.0)


def _figure2(**kwargs):
    return figure2.run_goal_sweep(
        seed=3, intervals=3, config=CONFIG,
        goal_range=GOAL_RANGE, warmup_ms=WARMUP_MS, prescreen=20,
        **kwargs,
    ).points


def _goal_pairs(**kwargs):
    return multiclass.run_goal_sweep(
        goal_pairs=((3.0, 8.0), (4.0, 10.0)),
        config=multiclass.doubled_cache_config(CONFIG), seed=3,
        intervals=3, warmup_ms=WARMUP_MS, **kwargs,
    ).points


def _sharing(**kwargs):
    return multiclass.run_sharing_sweep(
        sharings=(0.0, 0.5), seed=3, intervals=3, tail=2,
        warmup_ms=WARMUP_MS, **kwargs,
    ).points


def _resilience_goals(**kwargs):
    return resilience.run_goal_sweep(
        goals=(4.0, 7.0), seed=0, intervals=8, config=CONFIG,
        replications=2, warmup_ms=WARMUP_MS, **kwargs,
    ).results


def _resilience(**kwargs):
    return resilience.run_resilience(
        seed=0, intervals=8, config=CONFIG, replications=2,
        warmup_ms=WARMUP_MS, **kwargs,
    ).replicates


def _scaling(**kwargs):
    return scaling.run_scaling((3,), (4,), intervals=2, **kwargs)


#: name -> (sweep, the paths it is pinned on: 'fork' and 'cold' for a
#: sweep whose points share warm state, 'cold' for one that never
#: forks, None for a sweep of its own replicates run as it plans)
SWEEPS = {
    "figure2-goals": (_figure2, ("fork", "cold")),
    "multiclass-pairs": (_goal_pairs, ("fork", "cold")),
    "multiclass-sharing": (_sharing, ("cold",)),
    "resilience-goals": (_resilience_goals, ("fork", "cold")),
    "resilience": (_resilience, (None,)),
    "scaling": (_scaling, (None,)),
}

#: The two resilience pins were re-recorded when the Section-4 LP and
#: the plane fit moved to plain-float code: the last digit of a few
#: ``plane_fit``/``lp_solve`` telemetry fields changed; ``repr`` of the
#: points did not.
DIGESTS = {
    "figure2-goals": (
        "56f13caa0236ae2752c76bb727e39411"
        "a0cf22f2ce3973720a0e040143e5c1c4"
    ),
    "multiclass-pairs": (
        "0cee3b0da0526ec622d0758b76c983aa"
        "f3a2579a22e41811afaffffbc9b81bb8"
    ),
    "multiclass-sharing": (
        "de63d073ec8b639ebdb2a4bc8e77dea7"
        "89d9b8775aa1fd32c6b5af3c7bff7965"
    ),
    "resilience-goals": (
        "3f35e4b43c7a77f9e4b87de7b3ba14ad"
        "0eeb42c0e573da4c8a8895a9c3cd9f29"
    ),
    "resilience": (
        "6069bb81890ca5da6fec75d795d3ae62"
        "15ebab27b4868bd5625239e7a44e8fbe"
    ),
    "scaling": (
        "ff45fc027750acc0484d4227a4b7a7d9"
        "75aec024c6cb4f5990189bb2fcafeb04"
    ),
}


def _tree_bytes(root):
    """Every pinned file under ``root`` as (relative path, bytes),
    sorted."""
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            if name == "snapshots.jsonl":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "trace.jsonl":
                data = _drop_prescreen_wallclock(data)
            yield os.path.relpath(path, root), data


def _drop_prescreen_wallclock(data: bytes) -> bytes:
    lines = []
    for line in data.decode("utf-8").splitlines():
        record = json.loads(line)
        if record.get("kind") == "prescreen":
            record.pop("ms")
            line = json.dumps(record, sort_keys=True)
        lines.append(line)
    return "\n".join(lines).encode("utf-8")


def sweep_digest(name, outdir, jobs=1):
    """Run sweep ``name`` with telemetry under ``outdir``; its digest."""
    fn, _ = SWEEPS[name]
    digest = hashlib.sha256(
        repr(fn(jobs=jobs, telemetry=outdir)).encode("utf-8")
    )
    for relpath, data in _tree_bytes(outdir):
        digest.update(relpath.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest()


CASES = [
    pytest.param(name, runner, jobs, id=f"{name}-{runner or 'auto'}-j{jobs}")
    for name, (_, runners) in SWEEPS.items()
    for runner in runners
    for jobs in (1, 2)
]


def test_every_sweep_is_pinned():
    assert set(DIGESTS) == set(SWEEPS)


@pytest.mark.parametrize("name,runner,jobs", CASES)
def test_sweep_digest_unchanged(tmp_path, monkeypatch, name, runner, jobs):
    # The pins were recorded with two figure2 replicates, a 2-interval
    # multiclass tail and the sharing sweep on CONFIG's doubled cache.
    monkeypatch.setattr(figure2, "SWEEP_REPLICATES", 2)
    monkeypatch.setattr(multiclass, "GOAL_SWEEP_TAIL", 2)
    monkeypatch.setattr(
        multiclass, "SHARING_CONFIG", multiclass.doubled_cache_config(CONFIG)
    )
    if runner == "cold":
        monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    outdir = str(tmp_path / "telemetry")
    assert sweep_digest(name, outdir, jobs) == DIGESTS[name]
