"""Tests for the sim-vs-theory cross-validation harness.

The full three-case validation (the ``repro validate-analytic``
acceptance gate) simulates minutes of cluster time; it runs here on
the quick horizon, which uses the same configurations and tolerance.
"""

import pytest

from repro.analytic import validate
from repro.analytic.validate import (
    DEFAULT_TOLERANCE,
    ClassComparison,
    ValidationReport,
    default_cases,
    product_form_config,
    run_validation,
    simulate_case,
)


def test_product_form_config_shrinks_cache_only():
    from repro.cluster.config import SystemConfig

    base = SystemConfig()
    config = product_form_config()
    assert config.node.buffer_bytes == 2 * base.page_size
    assert config.num_nodes == base.num_nodes
    assert config.num_pages == base.num_pages


def test_default_cases_are_the_three_acceptance_configs():
    cases = default_cases()
    assert [c.name for c in cases] == [
        "single-class", "two-class-symmetric", "two-class-asymmetric",
    ]
    quick = default_cases(quick=True)
    assert all(
        q.measure_ms < c.measure_ms for q, c in zip(quick, cases)
    )
    # The asymmetric case differentiates both op size and rate.
    asym = cases[2].workload.classes
    assert asym[0].pages_per_op != asym[1].pages_per_op
    assert (asym[0].arrival_rate_per_node
            != asym[1].arrival_rate_per_node)


def test_simulate_case_returns_means_and_counts():
    case = default_cases(quick=True)[0]
    import dataclasses

    short = dataclasses.replace(case, measure_ms=20_000.0)
    observed = simulate_case(short, seed=0)
    mean_ms, count = observed[1]
    assert count > 10
    assert mean_ms > 0


def test_comparison_and_report_accounting():
    good = ClassComparison(
        case="x", class_id=1, simulated_ms=10.0, predicted_ms=10.5,
        operations=100, tolerance=0.10,
    )
    bad = ClassComparison(
        case="x", class_id=2, simulated_ms=10.0, predicted_ms=15.0,
        operations=100, tolerance=0.10,
    )
    assert good.passed and not bad.passed
    report = ValidationReport(rows=[good, bad])
    assert not report.all_passed()
    assert report.worst_error() == pytest.approx(0.5)
    text = report.to_text()
    assert "FAIL" in text and "ok" in text
    data = report.to_dict()
    assert data["all_passed"] is False
    assert len(data["rows"]) == 2


def test_zero_simulated_time_never_passes():
    empty = ClassComparison(
        case="x", class_id=1, simulated_ms=0.0, predicted_ms=1.0,
        operations=0, tolerance=0.10,
    )
    assert empty.relative_error == float("inf")
    assert not empty.passed


@pytest.mark.slow
def test_quick_validation_passes_within_tolerance():
    # The acceptance gate: simulated R within 10% of exact MVA on all
    # three product-form-reducible cases.
    report = run_validation(quick=True, jobs=3)
    assert report.all_passed(), report.to_text()
    assert report.worst_error() <= DEFAULT_TOLERANCE
    assert len(report.rows) == 5  # 1 + 2 + 2 classes


def test_validation_jobs_do_not_change_results(monkeypatch):
    # One short case, serial vs parallel: identical seeded simulations.
    import dataclasses

    case = dataclasses.replace(
        default_cases(quick=True)[0], measure_ms=10_000.0
    )
    monkeypatch.setattr(validate, "default_cases", lambda quick: [case])
    serial = run_validation(jobs=1)
    parallel = run_validation(jobs=2)
    assert [r.simulated_ms for r in serial.rows] == [
        r.simulated_ms for r in parallel.rows
    ]
