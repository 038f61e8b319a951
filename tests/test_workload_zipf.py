"""Unit + property tests for the Zipf sampler."""

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import SystemConfig
from repro.experiments.runner import default_workload
from repro.workload import zipf
from repro.workload.zipf import ZipfPagePicker, ZipfSampler
from tests.workload_reference import vose_alias_lists, zipf_sample


def test_theta_zero_is_uniform():
    sampler = ZipfSampler(num_items=4, theta=0.0)
    for rank in range(4):
        assert sampler.probability(rank) == pytest.approx(0.25)


def test_probabilities_sum_to_one():
    sampler = ZipfSampler(num_items=100, theta=0.8)
    total = sum(sampler.probability(r) for r in range(100))
    assert total == pytest.approx(1.0)


def test_probabilities_decrease_with_rank():
    sampler = ZipfSampler(num_items=50, theta=1.0)
    probs = [sampler.probability(r) for r in range(50)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_theta_one_ratios():
    """Classic Zipf: p(rank 0) / p(rank 1) == 2."""
    sampler = ZipfSampler(num_items=10, theta=1.0)
    assert sampler.probability(0) / sampler.probability(1) == pytest.approx(
        2.0
    )


def test_empirical_distribution_matches():
    sampler = ZipfSampler(num_items=5, theta=1.0)
    rng = random.Random(1)
    n = 50_000
    counts = Counter(zipf_sample(sampler, rng) for _ in range(n))
    for rank in range(5):
        assert counts[rank] / n == pytest.approx(
            sampler.probability(rank), abs=0.01
        )


def test_higher_skew_concentrates_mass():
    low = ZipfSampler(num_items=100, theta=0.25)
    high = ZipfSampler(num_items=100, theta=1.0)
    top10_low = sum(low.probability(r) for r in range(10))
    top10_high = sum(high.probability(r) for r in range(10))
    assert top10_high > top10_low


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ZipfSampler(num_items=0, theta=0.5)
    with pytest.raises(ValueError):
        ZipfSampler(num_items=5, theta=-0.1)
    with pytest.raises(ValueError):
        ZipfSampler(num_items=5, theta=0.5).probability(5)


def test_page_picker_maps_ranks_to_pages():
    picker = ZipfPagePicker(pages=[100, 200, 300], theta=1.0)
    rng = random.Random(0)
    draws = {
        picker.pages[zipf_sample(picker.sampler, rng)] for _ in range(200)
    }
    assert draws <= {100, 200, 300}
    assert 100 in draws  # the hottest page must appear


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_alias_table_matches_probability_chi_squared(theta):
    """The alias sampler's empirical law matches ``probability`` (χ²).

    100k draws over 50 ranks: the χ² statistic against the exact
    probabilities has 49 degrees of freedom, whose 99.9th percentile is
    ~85.4 — a comfortably deterministic bound with a fixed seed.
    """
    num_items = 50
    draws = 100_000
    sampler = ZipfSampler(num_items=num_items, theta=theta)
    rng = random.Random(20_260_805 + int(theta * 100))
    counts = Counter(zipf_sample(sampler, rng) for _ in range(draws))
    chi2 = sum(
        (counts[rank] - draws * sampler.probability(rank)) ** 2
        / (draws * sampler.probability(rank))
        for rank in range(num_items)
    )
    assert chi2 < 85.4


def test_alias_table_is_exact_partition():
    """Accept/alias tables preserve the probability mass exactly."""
    sampler = ZipfSampler(num_items=97, theta=0.8)
    n = sampler.num_items
    mass = [sampler._accept[i] / n for i in range(n)]
    for i in range(n):
        if sampler._alias[i] != i:
            mass[sampler._alias[i]] += (1.0 - sampler._accept[i]) / n
    for rank in range(n):
        assert mass[rank] == pytest.approx(
            sampler.probability(rank), rel=1e-9
        )


def test_single_item_always_rank_zero():
    sampler = ZipfSampler(num_items=1, theta=1.0)
    rng = random.Random(3)
    assert {zipf_sample(sampler, rng) for _ in range(50)} == {0}


@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100)
def test_property_samples_in_range(num_items, theta, seed):
    sampler = ZipfSampler(num_items, theta)
    rng = random.Random(seed)
    for _ in range(20):
        assert 0 <= zipf_sample(sampler, rng) < num_items


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_items", [1, 2, 1000, 100_000])
def test_typed_alias_tables_equal_list_oracle(num_items, theta, monkeypatch):
    """The typed tables hold exactly the list-built Vose entries."""
    monkeypatch.setattr(zipf, "_ALIAS_CACHE", {})
    sampler = ZipfSampler(num_items, theta)
    ref_total, ref_accept, ref_alias = vose_alias_lists(num_items, theta)
    assert (sampler._accept.typecode, sampler._alias.typecode) == ("d", "l")
    assert sampler._total == ref_total
    assert sampler._accept.tolist() == ref_accept
    assert sampler._alias.tolist() == ref_alias


def test_workload_page_state_is_compact(monkeypatch):
    """Page sets, pickers and alias tables cost at most 16 B per page.

    ``default_workload`` on a 200 000-page database: two contiguous
    page sets of 100 000 pages with the same skew, so one alias table
    (8 + 8 bytes per entry) serves both pickers.  Page sets held as
    tuples of boxed ids, or list copies in the pickers, cost several
    times the bound.
    """
    monkeypatch.setattr(zipf, "_ALIAS_CACHE", {})
    config = SystemConfig(num_nodes=16, num_pages=200_000)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload = default_workload(config, goal_ms=33.0, skew=0.5)
        pickers = [ZipfPagePicker(c.pages, c.skew) for c in workload.classes]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(pickers) == 2
    assert retained <= 16 * config.num_pages
