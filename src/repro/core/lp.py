"""The buffer-partitioning linear program (Section 4).

Given the fitted hyperplanes for the goal class k and the no-goal
class, the coordinator solves::

    minimize    sum_i eta_i * LM_i   + eta_0           (no-goal RT, eq. 9)
    subject to  sum_i kappa_i * LM_i + kappa = RT_goal  (eq. 5)
                0 <= LM_i <= SIZE_i - sum_{l != k} LM_l,i   (eq. 6)

One equality over a box is a continuous knapsack, which Dantzig's
greedy solves exactly: start every variable at the bound its cost
prefers, then move variables toward the equality, cheapest objective
cost per unit of constraint progress (``|eta_i| / |kappa_i|``) first;
the last one moves fractionally.

If the equality cannot be met inside the box (the goal is out of reach
of the current approximation), the same greedy runs to the end and
lands on the reachable allocation nearest the goal — the feedback loop
then refines the approximation on the next iteration.  The paper notes
such states are transient and irrelevant once goals are satisfiable
[16].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.hyperplane import Hyperplane

#: A residual of the equality at most this fraction of
#: ``max(1, |RT_goal - kappa|)`` counts as met (the simplex oracle's
#: phase-1 feasibility threshold).
FEASIBILITY_TOL = 1e-9

#: Cost ratios within this relative distance of a smaller one tie.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PartitioningProblem:
    """One optimization instance for a goal class."""

    #: Plane for the goal class's weighted mean RT over LM (eq. 4).
    goal_plane: Hyperplane
    #: Plane for the no-goal class's weighted mean RT over LM (eq. 9).
    nogoal_plane: Hyperplane
    #: The class's response time goal (ms).
    rt_goal: float
    #: Per-node upper bounds: reserved memory minus other classes'
    #: dedicated pools (eq. 6), in bytes.
    upper_bounds: Sequence[float]

    def __post_init__(self):
        if self.rt_goal <= 0:
            raise ValueError("response time goal must be positive")
        if len(self.upper_bounds) != self.goal_plane.dim:
            raise ValueError("one upper bound per node required")
        if any(ub < 0 for ub in self.upper_bounds):
            raise ValueError("upper bounds must be non-negative")


@dataclass(frozen=True)
class PartitioningSolution:
    """The new per-node allocation for the goal class."""

    allocation: List[float]
    #: Predicted goal-class RT at the allocation.
    predicted_goal_rt: float
    #: Predicted no-goal RT at the allocation.
    predicted_nogoal_rt: float
    #: True if the exact equality LP was infeasible and the relaxed
    #: minimum-deviation problem was solved instead.
    relaxed: bool


def solve_partitioning(problem: PartitioningProblem) -> PartitioningSolution:
    """Solve the Section-4 LP by the fractional-knapsack greedy.

    Variables are scaled to the box ``[0, 1]`` (``LM_i = z_i * SIZE_i``)
    so costs compare per unit of the box, as the allocations are ~10^6
    bytes while the plane gradients are ~10^-6 ms/byte.
    """
    ub = [float(u) for u in problem.upper_bounds]
    scale = [u if u > 0 else 1.0 for u in ub]
    box = [1.0 if u > 0 else 0.0 for u in ub]
    eta = [c * s for c, s in zip(problem.nogoal_plane.coefficients, scale)]
    kappa = [c * s for c, s in zip(problem.goal_plane.coefficients, scale)]
    rhs = problem.rt_goal - problem.goal_plane.intercept

    z = [b if e < 0 else 0.0 for e, b in zip(eta, box)]
    gap = rhs
    for k, zi in zip(kappa, z):
        gap -= k * zi
    # Full moves of z_i across its box, as (cost per unit of progress,
    # index, step); only moves that shrink the gap qualify.
    moves = []
    for i, (e, k, b) in enumerate(zip(eta, kappa, box)):
        step = -b if z[i] else b
        if k * step * gap > 0:
            moves.append((abs(e) / abs(k), i, step))
    moves.sort()
    # Tied ratios (equal up to rounding, as when regularize_plane clamps
    # both planes alike) move in index order: the vertex the simplex
    # reaches first and keeps, since a tie never improves its objective.
    order = []
    for ratio, i, step in moves:
        if not order or ratio > order[-1][0] * (1.0 + TIE_RTOL):
            lead = ratio
        order.append((lead, i, step))
    order.sort()
    for _, i, step in order:
        progress = kappa[i] * step
        if abs(progress) >= abs(gap):
            z[i] += gap / kappa[i]
            gap = 0.0
            break
        z[i] += step
        gap -= progress
    relaxed = abs(gap) > FEASIBILITY_TOL * max(1.0, abs(rhs))
    allocation = [
        min(max(zi, 0.0), b) * s for zi, b, s in zip(z, box, scale)
    ]
    return PartitioningSolution(
        allocation=allocation,
        predicted_goal_rt=problem.goal_plane.predict(allocation),
        predicted_nogoal_rt=problem.nogoal_plane.predict(allocation),
        relaxed=relaxed,
    )
