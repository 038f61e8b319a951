"""Incremental Gaussian elimination for linear-independence maintenance.

Phase (b) of the algorithm must guarantee that the ``N + 1`` retained
measure points admit a *unique* hyperplane approximation, i.e. that the
difference vectors between the newest point and the ``N`` older ones
are linearly independent.  Testing a candidate vector against an
existing independent set is done by incremental Gaussian elimination:
the set is kept in eliminated (row echelon) form, so checking and
adding one vector costs O(N²) instead of re-running a full O(N³)
elimination (§5, "incremental Gauss algorithm" after [14]).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

#: A residual this small relative to the vector's norm counts as zero.
RTOL = 1e-9


class IndependenceTracker:
    """A growing set of linearly independent vectors in R^dim."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        #: Eliminated rows; ``_pivots[i]`` is the pivot column of row i.
        self._rows: List[List[float]] = []
        self._pivots: List[int] = []

    @property
    def rank(self) -> int:
        """Number of independent vectors stored."""
        return len(self._rows)

    @property
    def full(self) -> bool:
        """True once dim vectors are stored (the set spans R^dim)."""
        return self.rank >= self.dim

    def residual(self, vector: Sequence[float]) -> List[float]:
        """``vector`` after elimination against the stored rows."""
        v = [float(x) for x in vector]
        if len(v) != self.dim:
            raise ValueError(f"expected {self.dim} entries, got {len(v)}")
        for row, pivot in zip(self._rows, self._pivots):
            if v[pivot] != 0.0:
                factor = v[pivot] / row[pivot]
                v = [x - factor * r for x, r in zip(v, row)]
        return v

    def add(self, vector: Sequence[float]) -> bool:
        """Add ``vector`` if it is independent; return success."""
        if self.full:
            return False
        norm = math.hypot(*vector)
        if norm == 0.0:
            return False
        residual = self.residual(vector)
        pivot = max(range(self.dim), key=lambda j: abs(residual[j]))
        if abs(residual[pivot]) <= RTOL * norm:
            return False
        self._rows.append(residual)
        self._pivots.append(pivot)
        return True


def select_independent(
    reference: Sequence[float],
    candidates: Sequence[Sequence[float]],
    limit: Optional[int] = None,
) -> List[int]:
    """Greedy selection of candidates with independent differences.

    Scans ``candidates`` in order (callers pass newest first) and keeps
    index ``i`` iff ``candidates[i] - reference`` is linearly
    independent of the differences already kept.  At most ``limit``
    (default: the dimension) indices are returned.  This implements the
    paper's rule of retaining the most recent measure points whose
    difference vectors to the newest point stay independent.
    """
    reference = [float(x) for x in reference]
    dim = len(reference)
    limit = dim if limit is None else min(limit, dim)
    tracker = IndependenceTracker(dim)
    chosen: List[int] = []
    for index, candidate in enumerate(candidates):
        if len(chosen) >= limit:
            break
        diff = [float(c) - r for c, r in zip(candidate, reference)]
        if tracker.add(diff):
            chosen.append(index)
    return chosen
