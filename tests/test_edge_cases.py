"""Edge-case tests across modules: kernel, simplex, LP, cluster."""

import numpy as np
import pytest

from repro.core import simplex
from repro.core.simplex import ITERATION_LIMIT, OPTIMAL, solve_lp
from repro.sim.engine import Environment, Event


# -- kernel ---------------------------------------------------------------


def test_nested_subgenerators_three_deep():
    env = Environment()
    result = []

    def level3():
        yield env.timeout(1.0)
        return 3

    def level2():
        value = yield from level3()
        yield env.timeout(1.0)
        return value + 2

    def level1():
        value = yield from level2()
        result.append(value)

    env.process(level1())
    env.run()
    assert result == [5]
    assert env.now == 2.0


def test_event_callback_after_processed_runs_immediately():
    env = Environment()
    event = Event(env)
    event.succeed("early")
    env.run()
    late = []

    def late_waiter():
        value = yield event  # event long processed
        late.append(value)

    env.process(late_waiter())
    env.run()
    assert late == ["early"]


# -- simplex ---------------------------------------------------------------


def test_simplex_redundant_equalities():
    """Duplicated equality rows must not break phase 1."""
    result = solve_lp(
        c=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[2.0, 4.0],
    )
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(2.0)


def test_simplex_equality_with_negative_rhs():
    result = solve_lp(c=[1.0], a_eq=[[-1.0]], b_eq=[-3.0])
    assert result.status == OPTIMAL
    assert result.x == pytest.approx([3.0])


def test_simplex_iteration_limit_reported(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
    result = solve_lp(
        c=[-1.0, -1.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[10.0],
    )
    assert result.status == ITERATION_LIMIT


def test_simplex_single_variable_tight():
    result = solve_lp(c=[5.0], a_ub=[[1.0]], b_ub=[0.0])
    assert result.status == OPTIMAL
    assert result.x == pytest.approx([0.0])


# -- partitioning LP ---------------------------------------------------------


def test_partitioning_mixed_zero_bounds():
    from repro.core.hyperplane import Hyperplane
    from repro.core.lp import PartitioningProblem, solve_partitioning

    MB = 1024 * 1024
    problem = PartitioningProblem(
        goal_plane=Hyperplane(np.array([-4.0 / MB, -4.0 / MB]), 20.0),
        nogoal_plane=Hyperplane(np.array([1.0 / MB, 1.0 / MB]), 1.0),
        rt_goal=12.0,
        upper_bounds=np.array([0.0, 4.0 * MB]),
    )
    solution = solve_partitioning(problem)
    assert solution.allocation[0] == pytest.approx(0.0, abs=1e-6)
    assert solution.allocation[1] == pytest.approx(2.0 * MB, rel=1e-6)
