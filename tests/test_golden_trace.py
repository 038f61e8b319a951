"""Kernel-equivalence golden test.

Replays the pinned figure2 configuration and asserts the generated
operation trace is event-for-event identical to the checked-in golden
file, which was recorded with the pre-fast-path kernel.  Any change to
event ordering, RNG stream consumption, or sampler draw counts shows up
here as a hard failure (see ``tests/golden_trace.py`` for the
regeneration policy).
"""

import os

from tests.golden_trace import GOLDEN_PATH, generate_trace, load_trace


def test_golden_file_exists():
    assert os.path.exists(GOLDEN_PATH), (
        "golden trace missing — run: PYTHONPATH=src python -m tests.golden_trace"
    )


def test_kernel_reproduces_golden_trace():
    golden = load_trace(GOLDEN_PATH).records
    fresh = generate_trace().records
    assert len(fresh) == len(golden)
    for i, (a, b) in enumerate(zip(fresh, golden)):
        assert a == b, (
            f"trace diverges at record {i}: got {a}, golden {b}"
        )

