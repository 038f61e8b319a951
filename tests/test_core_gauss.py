"""Unit + property tests for the incremental Gauss independence tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gauss import IndependenceTracker, select_independent


def test_first_nonzero_vector_accepted():
    tracker = IndependenceTracker(3)
    assert tracker.add([1.0, 0.0, 0.0])
    assert tracker.rank == 1


def test_zero_vector_rejected():
    tracker = IndependenceTracker(3)
    assert not tracker.add([0.0, 0.0, 0.0])
    assert tracker.rank == 0


def test_scalar_multiple_rejected():
    tracker = IndependenceTracker(3)
    tracker.add([1.0, 2.0, 3.0])
    assert not tracker.add([2.0, 4.0, 6.0])
    assert not tracker.add([-0.5, -1.0, -1.5])
    assert tracker.rank == 1


def test_linear_combination_rejected():
    tracker = IndependenceTracker(3)
    tracker.add([1.0, 0.0, 0.0])
    tracker.add([0.0, 1.0, 0.0])
    assert not tracker.add([3.0, -2.0, 0.0])
    assert tracker.add([0.0, 0.0, 1.0])


def test_full_rank_rejects_everything():
    tracker = IndependenceTracker(2)
    tracker.add([1.0, 0.0])
    tracker.add([0.0, 1.0])
    assert tracker.full
    assert not tracker.add([1.0, 1.0])
    assert not tracker.add([5.0, -7.0])


def test_wrong_shape_rejected():
    tracker = IndependenceTracker(3)
    with pytest.raises(ValueError):
        tracker.residual([1.0, 2.0])


def test_nearly_dependent_rejected():
    """Vectors dependent up to tiny noise must be treated as dependent."""
    tracker = IndependenceTracker(2)
    tracker.add([1.0, 1.0])
    assert not tracker.add([1.0 + 1e-12, 1.0])


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 6)),
        # Well-scaled entries: avoid sub-tolerance magnitudes where our
        # relative tolerance and numpy's absolute one legitimately
        # disagree about what counts as zero.
        elements=st.floats(-100, 100, allow_nan=False).map(
            lambda x: 0.0 if abs(x) < 1e-3 else x
        ),
    )
)
@settings(max_examples=100)
def test_property_rank_matches_numpy(matrix):
    """Tracker rank == numpy matrix_rank of the accepted vectors, and
    accepted count == numpy rank of all offered vectors."""
    n_vectors, dim = matrix.shape
    tracker = IndependenceTracker(dim)
    accepted = []
    for row in matrix:
        if tracker.add(row):
            accepted.append(row)
    np_rank = np.linalg.matrix_rank(matrix, tol=1e-6)
    assert tracker.rank == len(accepted)
    # The greedy tracker accepts exactly rank-many vectors (up to
    # borderline numerical cases which the tolerance settings avoid
    # for these well-scaled inputs).
    assert tracker.rank == np_rank
    if accepted:
        assert np.linalg.matrix_rank(np.array(accepted)) == len(accepted)


def test_select_independent_prefers_newest():
    reference = np.array([0.0, 0.0])
    candidates = [
        np.array([1.0, 0.0]),   # newest
        np.array([2.0, 0.0]),   # dependent on the first difference
        np.array([0.0, 1.0]),   # independent
        np.array([5.0, 5.0]),   # dependent once two are chosen
    ]
    chosen = select_independent(reference, candidates)
    assert chosen == [0, 2]


def test_select_independent_respects_limit():
    reference = np.zeros(3)
    candidates = [np.eye(3)[i] for i in range(3)]
    assert select_independent(reference, candidates, limit=2) == [0, 1]


def test_select_independent_skips_duplicates_of_reference():
    reference = np.array([1.0, 1.0])
    candidates = [np.array([1.0, 1.0]), np.array([2.0, 1.0])]
    assert select_independent(reference, candidates) == [1]
