"""The §8 variance objective: even response times across nodes.

Unlike the Section-4 LP (:mod:`repro.core.lp`, one equality over a
box), minimizing the largest per-node deviation from the goal is a
general LP with ``3n`` rows, so it runs on the two-phase simplex of
:mod:`repro.core.simplex`.  Both modules use numpy; only a coordinator
whose ``objective`` is ``"variance"`` imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.lp import PartitioningSolution
from repro.core.simplex import OPTIMAL, solve_lp


@dataclass(frozen=True)
class VarianceProblem:
    """The §8 future-work objective: even response times across nodes.

    Instead of minimizing the no-goal class's mean response time, pick
    the allocation that minimizes the *maximum deviation* of any node's
    goal-class response time from the goal, while the weighted mean
    still meets the goal exactly.  Applications with per-node fairness
    requirements (a goal plus a bounded coefficient of variation, as §8
    sketches) need this objective — the default one would happily leave
    one node far slower than the rest.
    """

    #: One plane per node: RT_{k,i} as a function of the LM vector.
    node_planes: tuple
    #: Arrival-rate weights per node (need not be normalized).
    weights: Sequence[float]
    rt_goal: float
    upper_bounds: Sequence[float]

    def __post_init__(self):
        if self.rt_goal <= 0:
            raise ValueError("response time goal must be positive")
        n = len(self.node_planes)
        if np.asarray(self.weights).shape != (n,):
            raise ValueError("one weight per node required")
        if np.asarray(self.upper_bounds).shape != (n,):
            raise ValueError("one upper bound per node required")


def solve_variance_partitioning(
    problem: VarianceProblem,
) -> Optional[PartitioningSolution]:
    """Minimize ``max_i |RT_i(LM) - goal|`` subject to eqs. 5/6.

    Linear program in ``(z_1..z_n, t)`` with the allocation scaled to
    the unit box: minimize t subject to ``|plane_i(z) - goal| <= t``
    for every node, the weighted-mean equality, and the box bounds.
    Falls back to dropping the equality when it is unreachable.
    """
    ub = np.asarray(problem.upper_bounds, dtype=float)
    n = ub.shape[0]
    scale = np.where(ub > 0, ub, 1.0)
    box_b = np.where(ub > 0, 1.0, 0.0)

    weights = np.asarray(problem.weights, dtype=float)
    total_weight = float(weights.sum())
    if total_weight <= 0:
        return None
    weights = weights / total_weight

    coeffs = np.array(
        [np.asarray(plane.coefficients, dtype=float) * scale
         for plane in problem.node_planes]
    )
    intercepts = np.array(
        [plane.intercept for plane in problem.node_planes]
    )
    mean_coeffs = weights @ coeffs
    mean_intercept = float(weights @ intercepts)

    # Variables: z_1..z_n, t.
    c = np.zeros(n + 1)
    c[n] = 1.0
    rows_ub = []
    rhs_ub = []
    for i in range(n):
        # plane_i(z) - goal <= t
        rows_ub.append(np.concatenate([coeffs[i], [-1.0]]))
        rhs_ub.append(problem.rt_goal - intercepts[i])
        # goal - plane_i(z) <= t
        rows_ub.append(np.concatenate([-coeffs[i], [-1.0]]))
        rhs_ub.append(intercepts[i] - problem.rt_goal)
    for i in range(n):
        row = np.zeros(n + 1)
        row[i] = 1.0
        rows_ub.append(row)
        rhs_ub.append(box_b[i])
    a_eq = np.concatenate([mean_coeffs, [0.0]]).reshape(1, -1)
    b_eq = np.array([problem.rt_goal - mean_intercept])

    result = solve_lp(
        c=c, a_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
        a_eq=a_eq, b_eq=b_eq,
    )
    if result.status != OPTIMAL:
        # Unreachable goal: just minimize the spread inside the box.
        result = solve_lp(
            c=c, a_ub=np.array(rows_ub), b_ub=np.array(rhs_ub)
        )
        if result.status != OPTIMAL:
            return None
        relaxed = True
    else:
        relaxed = False
    z = np.clip(result.x[:n], 0.0, box_b)
    allocation = [float(b) for b in z * scale]
    predicted_mean = float(mean_coeffs @ z + mean_intercept)
    return PartitioningSolution(
        allocation=allocation,
        predicted_goal_rt=predicted_mean,
        predicted_nogoal_rt=float("nan"),
        relaxed=relaxed,
    )
