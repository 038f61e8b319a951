"""Unit tests for the buffer-partitioning LP (Section 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperplane import Hyperplane
from repro.core.lp import PartitioningProblem, solve_partitioning

MB = 1024 * 1024


def make_problem(rt_goal=10.0, upper=(2 * MB, 2 * MB, 2 * MB)):
    """A 3-node instance with the theoretically expected slope signs."""
    goal_plane = Hyperplane(
        coefficients=np.array([-4.0, -4.0, -4.0]) / MB,  # -4 ms per MB
        intercept=30.0,
    )
    nogoal_plane = Hyperplane(
        coefficients=np.array([2.0, 3.0, 4.0]) / MB,
        intercept=2.0,
    )
    return PartitioningProblem(
        goal_plane=goal_plane,
        nogoal_plane=nogoal_plane,
        rt_goal=rt_goal,
        upper_bounds=np.array(upper, dtype=float),
    )


def test_solution_meets_goal_exactly():
    problem = make_problem(rt_goal=10.0)
    solution = solve_partitioning(problem)
    assert not solution.relaxed
    assert solution.predicted_goal_rt == pytest.approx(10.0, rel=1e-6)


def test_solution_respects_bounds():
    problem = make_problem(rt_goal=10.0)
    solution = solve_partitioning(problem)
    allocation = np.asarray(solution.allocation)
    assert np.all(allocation >= -1e-6)
    assert np.all(allocation <= problem.upper_bounds + 1e-6)


def test_objective_prefers_cheap_nodes():
    """Node 0 hurts the no-goal class least (2 ms/MB) -> fill it first."""
    problem = make_problem(rt_goal=10.0)
    solution = solve_partitioning(problem)
    # 5 MB total needed ((30-10)/4); node 0 and 1 full, rest on node 2.
    assert solution.allocation[0] == pytest.approx(2 * MB, rel=1e-6)
    assert solution.allocation[1] == pytest.approx(2 * MB, rel=1e-6)
    assert solution.allocation[2] == pytest.approx(1 * MB, rel=1e-6)


def test_goal_unreachable_relaxes_to_closest():
    """Goal below what even full dedication achieves -> clamp at max."""
    problem = make_problem(rt_goal=1.0)  # full memory gives 30-24=6 ms
    solution = solve_partitioning(problem)
    assert solution.relaxed
    assert solution.allocation == pytest.approx(
        problem.upper_bounds, rel=1e-6
    )
    assert solution.predicted_goal_rt == pytest.approx(6.0, rel=1e-6)


def test_reachable_end_is_feasible_and_just_beyond_relaxes():
    """Full memory gives exactly 6 ms: a 6 ms goal is met on the
    boundary of the box; a 5.9999999 ms goal is out of reach."""
    at_end = solve_partitioning(make_problem(rt_goal=6.0))
    assert not at_end.relaxed
    assert at_end.allocation == [2 * MB] * 3
    beyond = solve_partitioning(make_problem(rt_goal=5.9999999))
    assert beyond.relaxed
    assert beyond.allocation == [2 * MB] * 3


def test_goal_above_zero_allocation_relaxes_to_zero():
    problem = make_problem(rt_goal=50.0)  # zero memory gives 30 ms
    solution = solve_partitioning(problem)
    assert solution.relaxed
    assert solution.allocation == pytest.approx(np.zeros(3), abs=1e-3)


def test_zero_upper_bounds_handled():
    """Other classes hold all the memory: only the empty allocation."""
    problem = make_problem(rt_goal=30.0, upper=(0.0, 0.0, 0.0))
    solution = solve_partitioning(problem)
    assert solution.allocation == pytest.approx(np.zeros(3), abs=1e-6)


def test_validation():
    with pytest.raises(ValueError):
        make_problem(rt_goal=0.0)
    with pytest.raises(ValueError):
        make_problem(upper=(MB, MB))  # wrong length
    with pytest.raises(ValueError):
        make_problem(upper=(-MB, MB, MB))


def test_predicted_nogoal_rt_reported():
    problem = make_problem(rt_goal=10.0)
    solution = solve_partitioning(problem)
    expected = problem.nogoal_plane.predict(solution.allocation)
    assert solution.predicted_nogoal_rt == pytest.approx(expected)


def test_single_node_problem():
    problem = PartitioningProblem(
        goal_plane=Hyperplane(np.array([-2.0 / MB]), 20.0),
        nogoal_plane=Hyperplane(np.array([1.0 / MB]), 1.0),
        rt_goal=10.0,
        upper_bounds=np.array([8.0 * MB]),
    )
    solution = solve_partitioning(problem)
    assert solution.allocation[0] == pytest.approx(5 * MB, rel=1e-6)


# -- the closed form against the simplex oracle ------------------------------
#
# The oracle is the tableau formulation the closed form replaced: the LP
# over the unit box (x = scale * z) on the two-phase simplex, and, when
# the equality is out of reach, min t + eps * eta.z subject to
# |kappa.z - rhs| <= t.  Its eps term trades at most 1e-6 * n of
# deviation for objective, which bounds the relaxed comparison.

#: Optimum agreement, relative to the problem's magnitudes.
ORACLE_TOL = 1e-7


def _oracle(problem):
    """(feasible, z, scale) from the simplex oracle."""
    from repro.core.simplex import OPTIMAL, solve_lp

    ub = np.asarray(problem.upper_bounds, dtype=float)
    n = ub.shape[0]
    scale = np.where(ub > 0, ub, 1.0)
    eta = np.asarray(problem.nogoal_plane.coefficients) * scale
    kappa = np.asarray(problem.goal_plane.coefficients) * scale
    rhs = problem.rt_goal - problem.goal_plane.intercept
    box = np.where(ub > 0, 1.0, 0.0)
    result = solve_lp(
        c=eta, a_ub=np.eye(n), b_ub=box,
        a_eq=kappa.reshape(1, -1), b_eq=np.array([rhs]),
    )
    if result.status == OPTIMAL:
        return True, np.clip(result.x, 0.0, box), scale
    eta_norm = float(np.abs(eta).max())
    eps = 1e-6 / eta_norm if eta_norm > 0 else 0.0
    a_ub = np.zeros((2 + n, n + 1))
    a_ub[0, :n], a_ub[0, n] = kappa, -1.0
    a_ub[1, :n], a_ub[1, n] = -kappa, -1.0
    a_ub[2:, :n] = np.eye(n)
    b_ub = np.concatenate([[rhs, -rhs], box])
    result = solve_lp(
        c=np.concatenate([eps * eta, [1.0]]), a_ub=a_ub, b_ub=b_ub
    )
    assert result.status == OPTIMAL
    return False, np.clip(result.x[:n], 0.0, box), scale


def test_tied_ratios_fill_in_index_order_like_the_simplex():
    """When regularize_plane clamps both planes around the same single
    correct-signed node, every cost ratio ties up to rounding; the
    closed form then moves nodes in index order and returns the vertex
    the simplex returns (a recorded coordinator instance)."""
    problem = PartitioningProblem(
        goal_plane=Hyperplane(
            [-9.752472158849729e-07, -1.9504944317699457e-05,
             -9.752472158849729e-07],
            37.00671458568314,
        ),
        nogoal_plane=Hyperplane(
            [2.160356734413559e-06, 4.320713468827117e-05,
             2.160356734413559e-06],
            1.0,
        ),
        rt_goal=8.0,
        upper_bounds=[2.0 * MB] * 3,
    )
    solution = solve_partitioning(problem)
    feasible, z_oracle, scale = _oracle(problem)
    assert feasible and not solution.relaxed
    assert solution.allocation[0] == 2.0 * MB
    assert solution.allocation[2] == 0.0
    assert solution.allocation == pytest.approx(
        list(z_oracle * scale), rel=1e-9
    )


_coefficient = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0]),
    # Sub-1e-3 magnitudes sit under the simplex's pivot tolerance.
    st.floats(-5.0, 5.0).map(lambda x: 0.0 if abs(x) < 1e-3 else x),
)
_bound = st.one_of(
    st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.5, 4.0 * MB)
)


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 8))
    upper = [draw(_bound) for _ in range(n)]
    # Coefficients per unit of the box, so magnitudes are comparable
    # whatever the bound (as the coordinator's planes are).
    kappa = [draw(_coefficient) for _ in range(n)]
    eta = draw(st.one_of(
        st.just([0.0] * n),
        st.lists(_coefficient, min_size=n, max_size=n),
    ))
    scale = [u if u > 0 else 1.0 for u in upper]
    rhs = draw(st.floats(-20.0, 20.0))
    return PartitioningProblem(
        goal_plane=Hyperplane(
            [k / s for k, s in zip(kappa, scale)], 50.0 - rhs
        ),
        nogoal_plane=Hyperplane([e / s for e, s in zip(eta, scale)], 1.0),
        rt_goal=50.0,
        upper_bounds=upper,
    )


@given(_problems())
@settings(max_examples=400, deadline=None)
def test_property_closed_form_matches_simplex_oracle(problem):
    solution = solve_partitioning(problem)
    feasible, z_oracle, scale = _oracle(problem)
    assert solution.relaxed == (not feasible)

    ub = np.asarray(problem.upper_bounds, dtype=float)
    z = np.asarray(solution.allocation) / scale
    assert np.all(z >= 0.0)
    assert np.all(z <= np.where(ub > 0, 1.0, 0.0))
    eta = np.asarray(problem.nogoal_plane.coefficients) * scale
    kappa = np.asarray(problem.goal_plane.coefficients) * scale
    rhs = problem.rt_goal - problem.goal_plane.intercept
    size = 1.0 + abs(rhs) + float(np.abs(kappa).sum() + np.abs(eta).sum())
    deviation = abs(float(kappa @ z) - rhs)
    oracle_deviation = abs(float(kappa @ z_oracle) - rhs)
    if feasible:
        # Same optimum of eq. 9 on the equality of eq. 5.
        assert deviation <= ORACLE_TOL * size
        assert float(eta @ z) == pytest.approx(
            float(eta @ z_oracle), abs=ORACLE_TOL * size
        )
    else:
        # Both land on the reachable end nearest the goal.
        assert deviation <= oracle_deviation + ORACLE_TOL * size
        assert oracle_deviation <= (
            deviation + 1e-6 * len(ub) + ORACLE_TOL * size
        )
