"""Golden workload trace for kernel-equivalence testing.

The (time, node, class, pages) operation trace of a seeded figure2 run
depends only on the DES kernel's event ordering and the named RNG
streams — open-system arrivals and Zipfian page draws never observe
buffer-manager state.  The checked-in golden file was recorded with the
pre-fast-path kernel, so reproducing it event-for-event proves that the
kernel optimizations (``__slots__``, the fused timeout→resume path, the
hoisted run loop) changed no simulated behaviour.

Regenerate (only after an *intentional* change to kernel ordering or
RNG semantics) with::

    PYTHONPATH=src python -m tests.golden_trace
"""

from __future__ import annotations

import contextlib
import functools
import json
import os

from repro.cluster.config import NodeParameters, SystemConfig
from repro.experiments import runner
from repro.experiments.calibration import GoalRange
from repro.experiments.figure2 import run_figure2
from repro.workload.trace import TraceRecorder

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_trace_figure2.jsonl"
)

#: The seeded 2-interval figure2 setup the golden trace pins down.
SEED = 42
INTERVALS = 2
WARMUP_MS = 4_000.0
CONFIG = SystemConfig(
    num_nodes=3,
    num_pages=400,
    node=NodeParameters(buffer_bytes=256 * 1024),
    observation_interval_ms=2000.0,
)
#: Fixed so the run needs no calibration phase.
GOAL_RANGE = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)


@contextlib.contextmanager
def recording(recorder: TraceRecorder):
    """Record the operations of every :class:`Simulation` built inside
    the block into ``recorder``, by handing it to the workload
    generator the simulation builds."""
    generator = runner.WorkloadGenerator
    runner.WorkloadGenerator = functools.partial(
        generator, recorder=recorder
    )
    try:
        yield recorder
    finally:
        runner.WorkloadGenerator = generator


def generate_trace() -> TraceRecorder:
    """Run the pinned figure2 configuration and record its trace."""
    with recording(TraceRecorder()) as recorder:
        run_figure2(
            seed=SEED,
            intervals=INTERVALS,
            config=CONFIG,
            goal_range=GOAL_RANGE,
            warmup_ms=WARMUP_MS,
        )
    return recorder


def load_trace(path: str) -> TraceRecorder:
    """Read a JSON-lines trace: one ``time``/``node``/``class``/``pages``
    object per record (the golden trace's format)."""
    recorder = TraceRecorder()
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            data = json.loads(line)
            recorder.record(
                data["time"], data["node"], data["class"],
                tuple(data["pages"]),
            )
    return recorder


def save_trace(recorder: TraceRecorder, path: str) -> None:
    """Write a trace as the JSON lines :func:`load_trace` reads."""
    with open(path, "w") as handle:
        for rec in recorder.records:
            handle.write(
                json.dumps(
                    {
                        "time": rec.time,
                        "node": rec.node_id,
                        "class": rec.class_id,
                        "pages": list(rec.pages),
                    }
                )
                + "\n"
            )


def main() -> None:
    """Regenerate the golden file from the current kernel."""
    recorder = generate_trace()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    save_trace(recorder, GOLDEN_PATH)
    print(f"{len(recorder.records)} records written to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
