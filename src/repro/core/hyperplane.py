"""Hyperplane approximation of response time curves.

Equation 4 of the paper approximates the weighted mean response time of
a class as an N-dimensional hyperplane over the per-node dedicated
buffer sizes ``(LM_1, ..., LM_N)``:

    RT(LM) = sum_i kappa_i * LM_i + kappa

The coefficients are determined from ``N + 1`` measure points whose
difference vectors are linearly independent (exact interpolation); with
more points a least-squares fit is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: Cut-off ratio for small singular values in the least-squares fit.
RCOND = 1e-12


class SingularFitError(Exception):
    """The measure points do not determine a unique hyperplane."""


@dataclass(frozen=True)
class Hyperplane:
    """``predict(x) = coefficients . x + intercept``."""

    coefficients: np.ndarray
    intercept: float

    @property
    def dim(self) -> int:
        """Number of input dimensions (nodes)."""
        return self.coefficients.shape[0]

    def predict(self, x) -> float:
        """Evaluate the plane at allocation vector ``x``."""
        x = np.asarray(x, dtype=float)
        return float(self.coefficients @ x + self.intercept)


def fit_hyperplane(
    points: Sequence[Tuple[np.ndarray, float]],
) -> Hyperplane:
    """Fit a hyperplane through ``(allocation, response_time)`` points.

    With exactly ``dim + 1`` points the plane interpolates them (this is
    the paper's case: phase (b) guarantees a unique solution); with more
    points the least-squares plane is returned.  Raises
    :class:`SingularFitError` when the system is rank-deficient.
    """
    if not points:
        raise ValueError("need at least one point")
    xs = np.asarray([np.asarray(x, dtype=float) for x, _ in points])
    ys = np.asarray([float(y) for _, y in points])
    n_points, dim = xs.shape
    if n_points < dim + 1:
        raise SingularFitError(
            f"{n_points} points cannot determine a {dim}-dim plane"
        )
    design = np.hstack([xs, np.ones((n_points, 1))])
    if n_points == dim + 1:
        try:
            solution = np.linalg.solve(design, ys)
        except np.linalg.LinAlgError as exc:
            raise SingularFitError(str(exc)) from None
    else:
        solution, _, rank, _ = np.linalg.lstsq(design, ys, rcond=RCOND)
        if rank < dim + 1:
            raise SingularFitError(
                f"design matrix rank {rank} < {dim + 1}"
            )
    return Hyperplane(coefficients=solution[:dim], intercept=float(solution[dim]))


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
    anchor: Tuple[np.ndarray, float],
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
    coeffs = plane.coefficients.copy()
    correct = coeffs[sign * coeffs > 0]
    if correct.shape[0] == 0:
        return None
    magnitude = float(np.abs(correct).mean()) * min_ratio
    clamped = np.where(
        sign * coeffs > 0, coeffs, sign * magnitude
    )
    anchor_x, anchor_y = anchor
    intercept = float(anchor_y) - float(
        clamped @ np.asarray(anchor_x, dtype=float)
    )
    return Hyperplane(coefficients=clamped, intercept=intercept)
