"""A two-phase dense simplex solver.

The paper's coordinator solves its buffer-partitioning optimization
with the simplex method (using the lp_solve library [3]); this module
provides that substrate from scratch.  The implementation is a
textbook two-phase tableau simplex with Bland's anti-cycling rule —
exponential in the worst case but, as the paper notes citing [25],
linear in variables and constraints on average, which is all the
(small) partitioning LPs need.

Problem form::

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                x >= 0

Upper bounds on variables are expressed by the caller as ``a_ub`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Result status codes.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

#: Pivots per phase before a run reports ``ITERATION_LIMIT``.
MAX_ITERATIONS = 10_000
#: Zero threshold for reduced costs, pivot entries and ratios.
TOL = 1e-9


@dataclass
class SimplexResult:
    """Outcome of a simplex run."""

    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> SimplexResult:
    """Solve the LP; see module docstring for the problem form."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    kinds = []  # 'ub' or 'eq'
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        if a_ub.shape != (b_ub.shape[0], n):
            raise ValueError("inconsistent a_ub/b_ub shapes")
        for row, b in zip(a_ub, b_ub):
            rows.append(row)
            rhs.append(b)
            kinds.append("ub")
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if a_eq.shape != (b_eq.shape[0], n):
            raise ValueError("inconsistent a_eq/b_eq shapes")
        for row, b in zip(a_eq, b_eq):
            rows.append(row)
            rhs.append(b)
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        # Unconstrained over x >= 0: bounded iff c >= 0, optimum at 0.
        if np.all(c >= -TOL):
            return SimplexResult(OPTIMAL, np.zeros(n), 0.0, 0)
        return SimplexResult(UNBOUNDED, None, None, 0)

    # Standard form: slacks for <= rows, then artificials where needed.
    n_slack = sum(1 for kind in kinds if kind == "ub")
    a = np.zeros((m, n + n_slack))
    b = np.zeros(m)
    slack_col = n
    slack_of_row = {}
    for i, (row, bi, kind) in enumerate(zip(rows, rhs, kinds)):
        a[i, :n] = row
        b[i] = bi
        if kind == "ub":
            a[i, slack_col] = 1.0
            slack_of_row[i] = slack_col
            slack_col += 1
    # Make rhs non-negative.
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0

    # Choose an initial basis: a row's slack if its coefficient is
    # still +1 (rhs was non-negative), otherwise an artificial.
    n_total = a.shape[1]
    basis = [-1] * m
    artificial_cols = []
    for i in range(m):
        slack = slack_of_row.get(i)
        if slack is not None and a[i, slack] == 1.0:
            basis[i] = slack
    n_art = sum(1 for bi in basis if bi == -1)
    if n_art:
        a = np.hstack([a, np.zeros((m, n_art))])
        col = n_total
        for i in range(m):
            if basis[i] == -1:
                a[i, col] = 1.0
                basis[i] = col
                artificial_cols.append(col)
                col += 1
        n_total = a.shape[1]

    tableau = np.zeros((m + 1, n_total + 1))
    tableau[:m, :n_total] = a
    tableau[:m, -1] = b
    iterations = 0

    if artificial_cols:
        # Phase 1: minimize the sum of artificials.
        phase1_cost = np.zeros(n_total)
        phase1_cost[artificial_cols] = 1.0
        _set_objective(tableau, basis, phase1_cost)
        status, it = _iterate(tableau, basis)
        iterations += it
        if status != OPTIMAL:
            return SimplexResult(status, None, None, iterations)
        if tableau[-1, -1] < -TOL * max(1.0, float(np.abs(b).max())):
            # Objective row stores -value; phase-1 optimum > 0 means no
            # feasible point exists.
            return SimplexResult(INFEASIBLE, None, None, iterations)
        _drive_out_artificials(tableau, basis, artificial_cols)
        artificial_set = set(artificial_cols)
        if any(bi in artificial_set for bi in basis):
            # Redundant row with an artificial stuck at zero: drop it by
            # zeroing; keeping it basic at level 0 is harmless for
            # phase 2 as long as its column cost is +inf-like. We pin
            # the artificial columns to never re-enter by removing them
            # from pricing below.
            pass
        blocked = artificial_set
    else:
        blocked = set()

    # Phase 2: original objective (artificials excluded from pricing).
    full_cost = np.zeros(n_total)
    full_cost[:n] = c
    _set_objective(tableau, basis, full_cost)
    status, it = _iterate(tableau, basis, blocked=blocked)
    iterations += it
    if status != OPTIMAL:
        return SimplexResult(status, None, None, iterations)

    x = np.zeros(n_total)
    for i, col in enumerate(basis):
        x[col] = tableau[i, -1]
    solution = x[:n]
    return SimplexResult(
        OPTIMAL, solution, float(c @ solution), iterations
    )


def _set_objective(tableau, basis, cost) -> None:
    """Install ``cost`` as the objective row in reduced form."""
    m = tableau.shape[0] - 1
    tableau[-1, :-1] = cost
    tableau[-1, -1] = 0.0
    for i in range(m):
        coeff = tableau[-1, basis[i]]
        if coeff != 0.0:
            tableau[-1] -= coeff * tableau[i]


def _iterate(tableau, basis, blocked=frozenset()):
    """Run simplex pivots until optimal/unbounded/limit."""
    m = tableau.shape[0] - 1
    for iteration in range(MAX_ITERATIONS):
        objective = tableau[-1, :-1]
        entering = -1
        for j in range(objective.shape[0]):  # Bland: smallest index
            if j in blocked:
                continue
            if objective[j] < -TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, iteration
        column = tableau[:m, entering]
        best_ratio = None
        leaving = -1
        for i in range(m):
            if column[i] > TOL:
                ratio = tableau[i, -1] / column[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - TOL
                    or (
                        abs(ratio - best_ratio) <= TOL
                        and basis[i] < basis[leaving]
                    )
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, iteration
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    return ITERATION_LIMIT, MAX_ITERATIONS


def _pivot(tableau, row, col) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]


def _drive_out_artificials(tableau, basis, artificial_cols) -> None:
    """Pivot basic artificials (at level 0) out where possible."""
    artificial_set = set(artificial_cols)
    m = tableau.shape[0] - 1
    for i in range(m):
        if basis[i] in artificial_set:
            for j in range(tableau.shape[1] - 1):
                if j not in artificial_set and abs(tableau[i, j]) > TOL:
                    _pivot(tableau, i, j)
                    basis[i] = j
                    break
