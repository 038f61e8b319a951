"""Cross-validation: simulated steady state vs. exact MVA.

The strongest verification layer the repository has: golden traces pin
the simulator against *itself*; this harness pins it against *queueing
theory*.  On configurations chosen to be product-form-reducible, the
simulated per-class steady-state mean response time must match the
exact-MVA prediction of :mod:`repro.analytic` within tolerance.

"Product-form-reducible" means the two deliberate model breaks are
driven to where their error is bounded and small:

* **Deterministic services.**  The simulator's disk/CPU/wire holds are
  constants; MVA assumes exponential services, whose queueing delay is
  about twice deterministic-service delay (M/D/1 vs. M/M/1).  The
  validation points run at low utilization (~10%), where waiting is a
  small slice of the response time, so the 2x-on-waiting discrepancy
  stays well inside the response-time tolerance.
* **Cache-state dependence.**  Hit probabilities are state-dependent
  in the simulator, independent in the model.  The validation configs
  use near-zero cache (a 2-frame buffer against a 2000-page database),
  making the service demands exact up to a sub-percent hit rate.

A failing case therefore indicates a real accounting discrepancy —
a mispriced service charge, a missing visit, a broken station — and
not tolerance noise.  ``repro validate-analytic`` runs the suite from
the command line; the analytic-smoke CI job runs ``--quick``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.analytic.bridge import predict_response
from repro.cluster.cluster import Cluster
from repro.cluster.config import NodeParameters, SystemConfig
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import ClassSpec, WorkloadSpec, partition_pages

#: Acceptance tolerance on |simulated - MVA| / simulated.
DEFAULT_TOLERANCE = 0.10


def product_form_config() -> SystemConfig:
    """The §7.1 system with the cache shrunk to 2 frames per node.

    Everything else — CPU charges, disk, network — is the paper's
    setup, so the validation exercises the real access-path accounting.
    """
    base = SystemConfig()
    return replace(
        base, node=NodeParameters(buffer_bytes=2 * base.page_size)
    )


@dataclass(frozen=True)
class ValidationCase:
    """One product-form-reducible configuration to cross-validate."""

    name: str
    config: SystemConfig
    workload: WorkloadSpec
    description: str = ""
    warmup_ms: float = 2_000.0
    measure_ms: float = 160_000.0


def default_cases(quick: bool = False) -> List[ValidationCase]:
    """The three asserted configurations of the acceptance criteria.

    Arrival rates keep the busiest station near 10% utilization (see
    the module docstring for why); the asymmetric case differentiates
    the classes in both operation size and arrival rate.
    """
    config = product_form_config()
    measure_ms = 60_000.0 if quick else 160_000.0
    half1, half2 = partition_pages(config.num_pages, 2)

    single = WorkloadSpec(classes=[
        ClassSpec(class_id=1, goal_ms=50.0, pages=range(config.num_pages),
                  pages_per_op=4, arrival_rate_per_node=0.004,
                  name="only"),
    ])
    symmetric = WorkloadSpec(classes=[
        ClassSpec(class_id=1, goal_ms=50.0, pages=half1,
                  pages_per_op=4, arrival_rate_per_node=0.002,
                  name="k1"),
        ClassSpec(class_id=2, goal_ms=60.0, pages=half2,
                  pages_per_op=4, arrival_rate_per_node=0.002,
                  name="k2"),
    ])
    asymmetric = WorkloadSpec(classes=[
        ClassSpec(class_id=1, goal_ms=50.0, pages=half1,
                  pages_per_op=2, arrival_rate_per_node=0.003,
                  name="small-ops"),
        ClassSpec(class_id=2, goal_ms=80.0, pages=half2,
                  pages_per_op=8, arrival_rate_per_node=0.001,
                  name="large-ops"),
    ])
    return [
        ValidationCase(
            name="single-class", config=config, workload=single,
            description="one class, uniform access, whole database",
            measure_ms=measure_ms,
        ),
        ValidationCase(
            name="two-class-symmetric", config=config, workload=symmetric,
            description="two identical classes on disjoint halves",
            measure_ms=measure_ms,
        ),
        ValidationCase(
            name="two-class-asymmetric", config=config, workload=asymmetric,
            description="2-page ops at 3x the rate of 8-page ops",
            measure_ms=measure_ms,
        ),
    ]


class _MeanSink:
    """Per-class response-time means (plus counts) from the generator."""

    def __init__(self):
        self.total: Dict[int, float] = {}
        self.count: Dict[int, int] = {}

    def on_arrival(self, node_id, class_id, now):
        pass

    def on_complete(self, node_id, class_id, response_ms, now):
        self.total[class_id] = self.total.get(class_id, 0.0) + response_ms
        self.count[class_id] = self.count.get(class_id, 0) + 1

    def mean(self, class_id: int) -> float:
        count = self.count.get(class_id, 0)
        return self.total.get(class_id, 0.0) / count if count else 0.0


def simulate_case(
    case: ValidationCase, seed: int = 0
) -> Dict[int, Tuple[float, int]]:
    """Simulate one case to steady state under a static (empty) allocation.

    No controller, no dedicated pools — the system the analytic model
    describes.  Returns class id → (mean RT over the measured horizon,
    completed operations).
    """
    cluster = Cluster(case.config, seed=seed)
    generator = WorkloadGenerator(cluster, case.workload)
    generator.start()
    cluster.env.run(until=case.warmup_ms)
    sink = _MeanSink()
    generator.sink = sink
    cluster.env.run(until=case.warmup_ms + case.measure_ms)
    return {
        spec.class_id: (sink.mean(spec.class_id),
                        sink.count.get(spec.class_id, 0))
        for spec in case.workload.classes
    }


def _simulate_case_task(task) -> Dict[int, Tuple[float, int]]:
    """Module-level worker so cases can cross process boundaries."""
    case, seed = task
    return simulate_case(case, seed=seed)


@dataclass
class ClassComparison:
    """Simulated vs. predicted mean RT for one class of one case."""

    case: str
    class_id: int
    simulated_ms: float
    predicted_ms: float
    operations: int
    tolerance: float

    @property
    def relative_error(self) -> float:
        """|simulated - predicted| / simulated (inf when unmeasured)."""
        if self.simulated_ms == 0.0:
            return float("inf")
        return abs(self.simulated_ms - self.predicted_ms) / self.simulated_ms

    @property
    def passed(self) -> bool:
        """True when the error is within the acceptance tolerance."""
        return self.relative_error <= self.tolerance


@dataclass
class ValidationReport:
    """All class comparisons of one validation run."""

    rows: List[ClassComparison] = field(default_factory=list)
    method: str = "exact"

    def all_passed(self) -> bool:
        """True when every class of every case passed."""
        return all(row.passed for row in self.rows)

    def worst_error(self) -> float:
        """Largest relative error across all rows (0 when empty)."""
        return max((row.relative_error for row in self.rows), default=0.0)

    def to_text(self) -> str:
        """The comparison as an aligned text table."""
        from repro.experiments.reporting import format_table

        return format_table(
            ["case", "class", "simulated (ms)", "MVA (ms)",
             "error", "ops", "ok"],
            [
                [
                    row.case, row.class_id,
                    round(row.simulated_ms, 3),
                    round(row.predicted_ms, 3),
                    f"{row.relative_error:.1%}",
                    row.operations,
                    "ok" if row.passed else "FAIL",
                ]
                for row in self.rows
            ],
            title=(
                f"Analytic cross-validation ({self.method} MVA, "
                f"tolerance {self.rows[0].tolerance:.0%})"
                if self.rows else "Analytic cross-validation"
            ),
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form of the report."""
        return {
            "method": self.method,
            "all_passed": self.all_passed(),
            "worst_error": self.worst_error(),
            "rows": [
                {
                    "case": row.case,
                    "class_id": row.class_id,
                    "simulated_ms": row.simulated_ms,
                    "predicted_ms": row.predicted_ms,
                    "relative_error": row.relative_error,
                    "operations": row.operations,
                    "passed": row.passed,
                }
                for row in self.rows
            ],
        }


def run_validation(
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    method: str = "exact",
) -> ValidationReport:
    """Run the cross-validation suite and compare against exact MVA.

    ``jobs > 1`` farms the independent case simulations to worker
    processes (identical results — each case is a self-contained seeded
    simulation).  ``quick`` shortens the measured horizon for smoke
    runs; the tolerance is unchanged because the cases average
    hundreds of operations per class either way.
    """
    cases = default_cases(quick=quick)
    tasks = [(case, seed) for case in cases]
    if jobs > 1:
        from repro.experiments.parallel import run_tasks

        measured = run_tasks(_simulate_case_task, tasks, jobs=jobs)
    else:
        measured = [_simulate_case_task(task) for task in tasks]

    report = ValidationReport(method=method)
    for case, observed in zip(cases, measured):
        prediction = predict_response(
            case.config, case.workload, allocation={}, method=method,
        )
        for spec in sorted(
            case.workload.classes, key=lambda c: c.class_id
        ):
            mean_ms, count = observed[spec.class_id]
            report.rows.append(ClassComparison(
                case=case.name,
                class_id=spec.class_id,
                simulated_ms=mean_ms,
                predicted_ms=prediction.response_of(spec.class_id),
                operations=count,
                tolerance=tolerance,
            ))
    return report
