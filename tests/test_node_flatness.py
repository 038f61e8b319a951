"""The node-flatness gate's measurement stays runnable and seeded.

``tools/node_flatness.py`` is run only by CI's scaling job, so this
test runs its measuring function on tiny clusters to keep it from
rotting: each call builds a fresh seeded simulation, so two calls
count the same accesses.
"""

import os
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import node_flatness  # noqa: E402


def test_measure_counts_the_same_accesses_twice():
    for num_nodes in (2, 4):
        first = node_flatness.measure(num_nodes, 1)
        second = node_flatness.measure(num_nodes, 1)
        assert first[0] > 0
        assert first[0] == second[0]
        assert first[1] > 0.0 and second[1] > 0.0

