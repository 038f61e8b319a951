"""Unit + fuzz tests for the two-phase simplex solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
)


def test_simple_bounded_minimum():
    # min -x - y  s.t.  x + y <= 4, x <= 3, y <= 3
    result = solve_lp(
        c=[-1.0, -1.0],
        a_ub=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        b_ub=[4.0, 3.0, 3.0],
    )
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(-4.0)
    assert np.sum(result.x) == pytest.approx(4.0)


def test_equality_constraint():
    # min x + 2y  s.t.  x + y == 3
    result = solve_lp(
        c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[3.0]
    )
    assert result.status == OPTIMAL
    assert result.x == pytest.approx([3.0, 0.0])
    assert result.objective == pytest.approx(3.0)


def test_infeasible_detected():
    # x <= 1 and x >= 2 simultaneously.
    result = solve_lp(
        c=[1.0],
        a_ub=[[1.0], [-1.0]],
        b_ub=[1.0, -2.0],
    )
    assert result.status == INFEASIBLE
    assert result.x is None


def test_unbounded_detected():
    result = solve_lp(c=[-1.0], a_ub=[[0.0]], b_ub=[1.0])
    assert result.status == UNBOUNDED


def test_no_constraints_nonnegative_costs():
    result = solve_lp(c=[2.0, 0.0])
    assert result.status == OPTIMAL
    assert result.objective == 0.0


def test_no_constraints_negative_cost_unbounded():
    result = solve_lp(c=[-1.0])
    assert result.status == UNBOUNDED


def test_negative_rhs_normalized():
    # -x <= -2  (i.e. x >= 2), min x -> 2.
    result = solve_lp(c=[1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    assert result.status == OPTIMAL
    assert result.x == pytest.approx([2.0])


def test_degenerate_lp_terminates():
    """Bland's rule must prevent cycling on a degenerate instance."""
    result = solve_lp(
        c=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(-0.05)


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        solve_lp(c=[1.0], a_eq=[[1.0, 2.0]], b_eq=[1.0])


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_against_scipy(seed):
    """Random LPs: status and optimal objective must match HiGHS."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m_ub = int(rng.integers(0, 4))
        m_eq = int(rng.integers(0, 2))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
        b_ub = rng.normal(size=m_ub) + 1.0 if m_ub else None
        a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
        b_eq = rng.normal(size=m_eq) if m_eq else None
        ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        # presolve=False: HiGHS presolve reports some unbounded
        # problems as "infeasible or unbounded" -> infeasible.
        ref = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
            options={"presolve": False},
        )
        ref_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(
            ref.status, "other"
        )
        assert ours.status == ref_status
        if ours.status == OPTIMAL:
            assert ours.objective == pytest.approx(
                ref.fun, rel=1e-6, abs=1e-6
            )
            # The solution itself must be feasible.
            if a_ub is not None:
                assert np.all(a_ub @ ours.x <= b_ub + 1e-7)
            if a_eq is not None:
                assert np.allclose(a_eq @ ours.x, b_eq, atol=1e-7)
            assert np.all(ours.x >= -1e-9)
