"""Unit + property tests for hyperplane fitting and regularization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperplane import (
    Hyperplane,
    SingularFitError,
    fit_hyperplane,
    regularize_plane,
    weighted_mean_response_time,
)


def test_exact_interpolation_of_known_plane():
    coeffs = np.array([2.0, -3.0])
    intercept = 7.0
    xs = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    points = [(x, float(coeffs @ x + intercept)) for x in xs]
    plane = fit_hyperplane(points)
    assert plane.coefficients == pytest.approx(coeffs)
    assert plane.intercept == pytest.approx(intercept)


def test_predict_and_dim():
    plane = Hyperplane(coefficients=np.array([1.0, 2.0]), intercept=3.0)
    assert plane.predict([1.0, 1.0]) == 6.0
    assert plane.dim == 2


def test_too_few_points_rejected():
    with pytest.raises(SingularFitError):
        fit_hyperplane([(np.array([1.0, 2.0]), 3.0)])


def test_degenerate_points_rejected():
    """Points on a line cannot determine a 2-D plane."""
    points = [
        (np.array([0.0, 0.0]), 1.0),
        (np.array([1.0, 1.0]), 2.0),
        (np.array([2.0, 2.0]), 3.0),
    ]
    with pytest.raises(SingularFitError):
        fit_hyperplane(points)


def test_extra_points_rejected():
    """Phase (b) hands over exactly dim + 1 points; more is an error,
    not a least-squares fit."""
    coeffs = np.array([1.0, -1.0])
    rng = np.random.default_rng(0)
    points = []
    for _ in range(20):
        x = rng.uniform(-5, 5, 2)
        points.append((x, float(coeffs @ x + 2.0)))
    with pytest.raises(SingularFitError):
        fit_hyperplane(points)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100)
def test_property_fit_matches_numpy_solve(dim, seed):
    """The elimination agrees with ``numpy.linalg.solve`` (the oracle)
    on allocation-scaled systems; a repeated point is singular.

    numpy is no oracle for the repeated point: its LU multiplies by
    the pivot's reciprocal, leaves a residue of one rounding error
    where the pivot should be zero, and returns a huge plane."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 4e6, (dim + 1, dim))
    ys = rng.uniform(0.1, 100.0, dim + 1)
    if seed % 5 == 0:
        xs[-1] = xs[0]
        with pytest.raises(SingularFitError):
            fit_hyperplane(list(zip(xs, ys)))
        return
    design = np.hstack([xs, np.ones((dim + 1, 1))])
    expected = np.linalg.solve(design, ys)
    plane = fit_hyperplane(list(zip(xs, ys)))
    for x, y in zip(xs, ys):
        assert plane.predict(x) == pytest.approx(y, rel=1e-6, abs=1e-6)
    got = np.append(np.asarray(plane.coefficients), plane.intercept)
    residual = np.abs(design @ got - ys).max()
    oracle_residual = np.abs(design @ expected - ys).max()
    assert residual <= max(1e-6, 100 * oracle_residual)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60)
def test_property_fit_recovers_random_planes(dim, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-10, 10, dim)
    intercept = float(rng.uniform(-10, 10))
    xs = rng.uniform(-100, 100, (dim + 1, dim))
    points = [(x, float(coeffs @ x + intercept)) for x in xs]
    try:
        plane = fit_hyperplane(points)
    except SingularFitError:
        return  # random points may be degenerate; nothing to check
    for x in xs:
        assert plane.predict(x) == pytest.approx(
            float(coeffs @ x + intercept), rel=1e-6, abs=1e-6
        )


def test_weighted_mean_response_time():
    assert weighted_mean_response_time([10.0, 20.0], [1.0, 3.0]) == 17.5


def test_weighted_mean_zero_rates():
    assert weighted_mean_response_time([10.0, 20.0], [0.0, 0.0]) == 0.0


def test_weighted_mean_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_mean_response_time([1.0], [1.0, 2.0])


def test_regularize_clamps_wrong_signs():
    plane = Hyperplane(
        coefficients=np.array([-2.0, 0.5, -1.0]), intercept=10.0
    )
    anchor = (np.array([1.0, 1.0, 1.0]), 8.0)
    fixed = regularize_plane(plane, sign=-1, anchor=anchor)
    assert all(c < 0 for c in fixed.coefficients)
    # Correct-signed coefficients survive unchanged.
    assert fixed.coefficients[0] == -2.0
    assert fixed.coefficients[2] == -1.0
    # The plane passes through the anchor.
    assert fixed.predict(anchor[0]) == pytest.approx(8.0)


def test_regularize_positive_sign():
    plane = Hyperplane(coefficients=np.array([1.0, -0.2]), intercept=0.0)
    fixed = regularize_plane(
        plane, sign=1, anchor=(np.array([0.0, 0.0]), 5.0)
    )
    assert all(c > 0 for c in fixed.coefficients)
    assert fixed.intercept == pytest.approx(5.0)


def test_regularize_all_wrong_returns_none():
    plane = Hyperplane(coefficients=np.array([1.0, 2.0]), intercept=0.0)
    assert regularize_plane(
        plane, sign=-1, anchor=(np.zeros(2), 1.0)
    ) is None


def test_regularize_invalid_sign():
    plane = Hyperplane(coefficients=np.array([1.0]), intercept=0.0)
    with pytest.raises(ValueError):
        regularize_plane(plane, sign=0, anchor=(np.zeros(1), 1.0))
