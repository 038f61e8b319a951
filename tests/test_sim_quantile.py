"""Unit + property tests for the P² streaming quantile estimator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import P2Quantile


def test_invalid_quantile_rejected():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_empty_estimator_returns_zero():
    assert P2Quantile(0.5).value == 0.0


def test_exact_for_few_samples():
    estimator = P2Quantile(0.5)
    for x in (3.0, 1.0, 2.0):
        estimator.add(x)
    assert estimator.value == 2.0  # exact median of 3 samples


def test_median_of_uniform_stream():
    estimator = P2Quantile(0.5)
    rng = random.Random(1)
    for _ in range(20_000):
        estimator.add(rng.random())
    assert estimator.value == pytest.approx(0.5, abs=0.02)


def test_p95_of_exponential_stream():
    estimator = P2Quantile(0.95)
    rng = random.Random(2)
    samples = [rng.expovariate(1.0) for _ in range(20_000)]
    for x in samples:
        estimator.add(x)
    true_p95 = float(np.percentile(samples, 95))
    assert estimator.value == pytest.approx(true_p95, rel=0.08)


def test_monotone_quantiles():
    rng = random.Random(3)
    samples = [rng.gauss(10.0, 3.0) for _ in range(10_000)]
    estimates = []
    for q in (0.25, 0.5, 0.9):
        estimator = P2Quantile(q)
        for x in samples:
            estimator.add(x)
        estimates.append(estimator.value)
    assert estimates[0] < estimates[1] < estimates[2]


@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=50,
        max_size=400,
    ),
    st.sampled_from([0.25, 0.5, 0.75, 0.9]),
)
@settings(max_examples=60)
def test_property_estimate_within_sample_range(samples, quantile):
    estimator = P2Quantile(quantile)
    for x in samples:
        estimator.add(x)
    assert min(samples) <= estimator.value <= max(samples)
    assert estimator.count == len(samples)


# -- bit-identity with the loop form ---------------------------------


class _ReferenceP2:
    """The loop form of Jain & Chlamtac's P² update: the oracle for the
    unrolled :meth:`P2Quantile.add`."""

    def __init__(self, quantile):
        self.quantile = quantile
        self._initial = []
        self._heights = []
        self._positions = []
        self._desired = []
        self._increments = []
        self.count = 0

    def add(self, value):
        self.count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.quantile
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i, step):
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i, step):
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])


def _assert_same_after_every_sample(quantile, samples):
    fast = P2Quantile(quantile)
    ref = _ReferenceP2(quantile)
    for x in samples:
        fast.add(x)
        ref.add(x)
        assert fast._heights == ref._heights
        assert fast._positions == ref._positions
        assert fast._desired == ref._desired
        assert fast.count == ref.count
        # .value reads the initial samples until five exist.
        if ref.count < 5:
            assert fast._initial == ref._initial
        assert fast.value == P2Quantile.value.fget(ref)


@pytest.mark.parametrize("quantile", [0.05, 0.5, 0.9, 0.95, 0.99])
def test_add_bit_identical_to_loop_form(quantile):
    rng = random.Random(11)
    samples = []
    for _ in range(4_000):
        shape = rng.random()
        if shape < 0.4:
            samples.append(rng.expovariate(0.2))
        elif shape < 0.7:
            samples.append(rng.gauss(5.0, 2.0))
        elif shape < 0.9:
            samples.append(float(rng.randint(0, 6)))  # ties on markers
        else:
            samples.append(rng.uniform(-50.0, 400.0))  # new extremes
    _assert_same_after_every_sample(quantile, samples)
    # A sorted and a reversed stream walk every marker to one end.
    _assert_same_after_every_sample(quantile, sorted(samples[:800]))
    _assert_same_after_every_sample(quantile, sorted(samples[:800])[::-1])


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=300,
    ),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_property_add_bit_identical_to_loop_form(samples, quantile):
    _assert_same_after_every_sample(quantile, samples)
