"""Hyperplane approximation of response time curves.

Equation 4 of the paper approximates the weighted mean response time of
a class as an N-dimensional hyperplane over the per-node dedicated
buffer sizes ``(LM_1, ..., LM_N)``:

    RT(LM) = sum_i kappa_i * LM_i + kappa

The coefficients are determined from exactly ``N + 1`` measure points
whose difference vectors are linearly independent (exact
interpolation).  Vectors are plain lists of floats: N is at most a few
dozen, so a Python loop beats an array library's call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class SingularFitError(Exception):
    """The measure points do not determine a unique hyperplane."""


@dataclass(frozen=True)
class Hyperplane:
    """``predict(x) = coefficients . x + intercept``."""

    coefficients: Sequence[float]
    intercept: float

    @property
    def dim(self) -> int:
        """Number of input dimensions (nodes)."""
        return len(self.coefficients)

    def predict(self, x) -> float:
        """Evaluate the plane at allocation vector ``x``."""
        return dot(self.coefficients, x) + self.intercept


def dot(a, b) -> float:
    """``sum(a_i * b_i)``, accumulated left to right."""
    total = 0.0
    for ai, bi in zip(a, b):
        total += ai * bi
    return float(total)


def fit_hyperplane(
    points: Sequence[Tuple[Sequence[float], float]],
) -> Hyperplane:
    """Interpolate a hyperplane through ``dim + 1`` ``(allocation, RT)``
    points.

    Phase (b) guarantees the paper's case, a unique solution, so the
    fit is one Gaussian elimination with partial pivoting of the
    ``(dim + 1) x (dim + 1)`` system ``[x 1] . (kappa, kappa_0) = y``.
    Raises :class:`SingularFitError` for any other point count and
    when a pivot is exactly zero (a rank-deficient system).
    """
    if not points:
        raise ValueError("need at least one point")
    dim = len(points[0][0])
    if len(points) != dim + 1:
        raise SingularFitError(
            f"{len(points)} points cannot determine a {dim}-dim plane"
        )
    rows = [[float(v) for v in x] + [1.0, float(y)] for x, y in points]
    size = dim + 1
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            raise SingularFitError(f"singular design matrix (column {col})")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        head = lead[col]
        tail = lead[col + 1:]
        for r in range(col + 1, size):
            row = rows[r]
            factor = row[col] / head
            if factor != 0.0:
                row[col + 1:] = [
                    v - factor * w for v, w in zip(row[col + 1:], tail)
                ]
    solution: List[float] = [0.0] * size
    for col in range(size - 1, -1, -1):
        row = rows[col]
        acc = row[size]
        for j in range(col + 1, size):
            acc -= row[j] * solution[j]
        solution[col] = acc / row[col]
    return Hyperplane(coefficients=solution[:dim], intercept=solution[dim])


def weighted_mean_response_time(
    response_times: Sequence[float], arrival_rates: Sequence[float]
) -> float:
    """Arrival-rate weighted mean of per-node response times (eq. 4).

    Nodes with zero arrivals carry zero weight; if no node saw
    arrivals, 0.0 is returned (the caller skips the interval).
    """
    if len(response_times) != len(arrival_rates):
        raise ValueError("need one rate per response time")
    total_rate = float(sum(arrival_rates))
    if total_rate <= 0.0:
        return 0.0
    return float(
        sum(rt * rate for rt, rate in zip(response_times, arrival_rates))
        / total_rate
    )


def regularize_plane(
    plane: Hyperplane,
    sign: int,
    anchor: Tuple[Sequence[float], float],
    min_ratio: float = 0.05,
) -> Optional[Hyperplane]:
    """Clamp a fitted plane's gradients to the theoretically valid sign.

    Section 3 assumes that more buffer never increases a class's
    response time, so the goal-class plane (eq. 4) must have
    non-positive gradients, and the paper notes that the no-goal plane
    (eq. 9) has strictly positive ones.  Measurement noise can flip
    individual fitted slopes; feeding a wrong-signed slope into the LP
    makes it *shrink* the buffer of a violated class.  This guard
    clamps wrong-signed components to a small correct-signed magnitude
    (``min_ratio`` of the mean correct-signed magnitude) and re-anchors
    the intercept so the plane still passes through the newest measure
    point.

    Returns None when *every* gradient has the wrong sign — the fit is
    useless and the caller should fall back to warm-up exploration.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    coeffs = [float(c) for c in plane.coefficients]
    correct = [abs(c) for c in coeffs if sign * c > 0]
    if not correct:
        return None
    magnitude = sum(correct) / len(correct) * min_ratio
    clamped = [c if sign * c > 0 else sign * magnitude for c in coeffs]
    anchor_x, anchor_y = anchor
    intercept = float(anchor_y) - dot(clamped, anchor_x)
    return Hyperplane(coefficients=clamped, intercept=intercept)
