"""Property-based tests for the measure-point window invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gauss import IndependenceTracker
from repro.core.measure import MeasureWindow

observations = st.lists(
    st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=8),  # alloc in pages
            min_size=3, max_size=3,
        ),
        st.floats(min_value=0.1, max_value=100.0),   # rt_goal
        st.floats(min_value=0.1, max_value=100.0),   # rt_nogoal
    ),
    min_size=1,
    max_size=40,
)


@given(observations)
@settings(max_examples=100, deadline=None)
def test_property_selected_differences_always_independent(history):
    """Phase (b) invariant: the difference vectors of the selected
    points w.r.t. the newest one are always linearly independent."""
    window = MeasureWindow(num_nodes=3)
    for i, (alloc, rt_goal, rt_nogoal) in enumerate(history):
        window.observe(
            np.array(alloc, dtype=float) * 4096.0,
            rt_goal, rt_nogoal, time=float(i),
        )
        selected = window.selected_points()
        assert 1 <= len(selected) <= 4
        newest = selected[0]
        tracker = IndependenceTracker(3)
        for point in selected[1:]:
            diff = point.allocation - newest.allocation
            assert tracker.add(diff), (
                "selected point with dependent difference vector"
            )


@given(observations)
@settings(max_examples=60, deadline=None)
def test_property_ready_windows_always_fit(history):
    """Whenever the window claims readiness, the plane fit succeeds."""
    window = MeasureWindow(num_nodes=3)
    for i, (alloc, rt_goal, rt_nogoal) in enumerate(history):
        window.observe(
            np.array(alloc, dtype=float) * 4096.0,
            rt_goal, rt_nogoal, time=float(i),
        )
        if window.ready():
            goal_plane, nogoal_plane = window.fit_planes()
            # The planes interpolate the selected points exactly.
            for point in window.selected_points():
                assert abs(
                    goal_plane.predict(point.allocation) - point.rt_goal
                ) < 1e-6 * max(1.0, abs(point.rt_goal)) + 1e-6


@given(observations)
@settings(max_examples=60, deadline=None)
def test_property_newest_reflects_last_observation(history):
    window = MeasureWindow(num_nodes=3, smoothing=1.0)
    for i, (alloc, rt_goal, rt_nogoal) in enumerate(history):
        window.observe(
            np.array(alloc, dtype=float) * 4096.0,
            rt_goal, rt_nogoal, time=float(i),
        )
        assert window.newest.time == float(i)
        # With smoothing=1.0 the newest point's RT equals the last
        # observation at that allocation.
        assert window.newest.rt_goal == rt_goal
