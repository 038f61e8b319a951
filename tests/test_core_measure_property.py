"""Property-based tests for the measure-point window invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gauss import IndependenceTracker, select_independent
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
            diff = np.subtract(point.allocation, newest.allocation)
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


def _uncached_selection(window, now):
    """Phase (b) from scratch: filter by age, then Gauss-select."""
    history = list(window._history)
    if window.max_age is not None and now is not None:
        history = [p for p in history if now - p.time <= window.max_age]
    if not history:
        return []
    chosen = select_independent(
        history[0].allocation,
        [p.allocation for p in history[1:]],
        limit=window.num_nodes,
    )
    return [history[0]] + [history[1 + i] for i in chosen]


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.lists(st.integers(0, 6), min_size=3, max_size=3),
            st.floats(min_value=0.1, max_value=100.0),
        ),
        st.tuples(st.just("invalidate"), st.integers(0, 4)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("query"), st.floats(0.0, 12.0)),
    ),
    min_size=1,
    max_size=50,
)


@given(steps, st.sampled_from([None, 3.0, 8.0]))
@settings(max_examples=150, deadline=None)
def test_property_cached_selection_equals_uncached(history, max_age):
    """The cached selection equals a fresh one after every mutation,
    under aging (``max_age``) and invalidation, at any query time."""
    window = MeasureWindow(num_nodes=3, max_age=max_age)
    clock = 0.0
    for step in history:
        if step[0] == "observe":
            clock += 1.0
            window.observe(
                [4096.0 * a for a in step[1]], step[2], 1.0, time=clock
            )
        elif step[0] == "invalidate":
            window.invalidate_before(clock - step[1])
        elif step[0] == "clear":
            window.clear()
        for now in (None, clock, clock + (step[1] if step[0] == "query"
                                          else 0.5)):
            assert window.selected_points(now) == (
                _uncached_selection(window, now)
            )
            # A repeated call (the cached path) returns the same list.
            assert window.selected_points(now) == (
                _uncached_selection(window, now)
            )


def test_one_lp_evaluate_selects_once(monkeypatch):
    """``ready()`` and ``fit_planes()`` of one evaluate share one Gauss
    selection."""
    from repro.core import measure
    from repro.core.agent import AgentReport
    from repro.core.coordinator import Coordinator

    mb = 1024 * 1024
    coordinator = Coordinator(
        class_id=1, node_sizes=[2 * mb] * 3, goal_ms=10.0,
        settle_intervals=0,
    )
    for i, alloc in enumerate(
        [[0.0] * 3, [mb, 0.0, 0.0], [0.0, mb, 0.0], [0.0, 0.0, mb]]
    ):
        rt = 25.0 - 5.0 * sum(alloc) / mb
        coordinator.window.observe(alloc, rt, 1.0 + sum(alloc) / mb,
                                   time=float(i))
    coordinator.receive_granted([0, 0, mb])
    for node_id in range(3):
        coordinator.receive_goal_report(AgentReport(
            node_id=node_id, class_id=1, arrivals=50, completions=50,
            mean_response_ms=20.0, arrival_rate=0.01, time=5.0,
        ))
        coordinator.receive_nogoal_report(AgentReport(
            node_id=node_id, class_id=0, arrivals=50, completions=50,
            mean_response_ms=1.0, arrival_rate=0.01, time=5.0,
        ))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return select_independent(*args, **kwargs)

    monkeypatch.setattr(measure, "select_independent", counting)
    decision = coordinator.evaluate(now=5.0, other_dedicated=[0, 0, 0])
    assert decision.mechanism == "lp"
    assert len(calls) == 1
