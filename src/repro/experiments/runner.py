"""Simulation assembly: cluster + workload + goal-oriented controller.

:class:`Simulation` is the top-level convenience object of the library:
it wires a :class:`~repro.cluster.Cluster`, a
:class:`~repro.workload.WorkloadGenerator`, and the goal-oriented
controller, and runs the feedback loop for a number of observation
intervals.  :func:`build_base_experiment` reproduces the §7.1/§7.2
setup exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.core.controller import GoalOrientedController
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import ClassSpec, WorkloadSpec, partition_pages

#: Shared simulated warm-up horizons (ms).  Every experiment warms the
#: caches before its controller starts reacting; these constants pin
#: the historical values in one place instead of scattered literals.
#: The discrepancy is deliberate and documented: the goal-range
#: calibration (§7.3) wants a fully steady cache under a *static*
#: allocation, so it warms 3x longer than the feedback experiments,
#: while the resilience study inherited a shorter warm-up because its
#: scaled-down quick config reaches steady state faster.
DEFAULT_WARMUP_MS = 20_000.0
CALIBRATION_WARMUP_MS = 60_000.0
RESILIENCE_WARMUP_MS = 10_000.0

#: The §7.2 base workload: operations per ms arriving at each node, per
#: class, and page accesses per operation.
ARRIVAL_RATE_PER_NODE = 0.02
PAGES_PER_OP = 4


class Simulation:
    """A runnable goal-oriented buffer management experiment."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        workload: Optional[WorkloadSpec] = None,
        seed: int = 0,
        warmup_ms: float = 0.0,
        faults=None,
        telemetry=None,
    ):
        self.config = config if config is not None else SystemConfig()
        if workload is None:
            raise ValueError("a workload spec is required")
        self.workload = workload
        self.cluster = Cluster(self.config, seed=seed)
        self.controller = GoalOrientedController(
            self.cluster,
            {c.class_id: c.goal_ms for c in workload.goal_classes},
        )
        #: Created automatically when the workload contains writes.
        self.txn_manager = None
        if any(c.write_fraction > 0 for c in workload.classes):
            from repro.txn.manager import TransactionManager

            self.txn_manager = TransactionManager(self.cluster)
        self.generator = WorkloadGenerator(
            self.cluster, workload, sink=self.controller,
            txn_manager=self.txn_manager,
        )
        #: Fault injector (``faults`` may be a spec string, a
        #: FaultSchedule, or None).  Without faults nothing is attached
        #: and the simulation is bit-identical to pre-fault builds.
        self.fault_injector = None
        if faults is not None:
            from repro.faults import FaultInjector, FaultSchedule

            if isinstance(faults, str):
                faults = FaultSchedule.parse(faults)
            self.fault_injector = FaultInjector(self.cluster, faults)
        self.warmup_ms = warmup_ms
        self._warmed = False
        self._started = False
        self._controller_t0 = 0.0
        self._intervals_requested = 0
        #: Attached telemetry pipeline (None until activation).
        self.telemetry = None
        #: Export directory (``telemetry`` may be a directory path, or
        #: True for an in-memory pipeline without exports).  The
        #: pipeline attaches at activation — after the warm-up — so
        #: warmed images stay goal- and telemetry-agnostic and fork
        #: children inherit an untelemetried parent.
        self._telemetry_spec = telemetry

    # -- running -------------------------------------------------------

    def warm(self) -> None:
        """Run the warm-up phase: workload (and faults) without control.

        Starts the generator and fault injector and advances the clock
        to ``warmup_ms`` so the caches warm before the controller ever
        reacts.  Idempotent.  This is the fork point of the warm-state
        fork server (:mod:`repro.experiments.forkserver`): everything
        up to here is by construction independent of the response time
        goals, tolerances, and controller policy knobs, so sweep points
        that differ only in those can share one warmed memory image.
        """
        if self._warmed:
            return
        self._warmed = True
        self.generator.start()
        if self.fault_injector is not None:
            self.fault_injector.start()
        if self.warmup_ms > 0:
            # Let caches warm before the controller starts reacting.
            self.cluster.env.run(until=self.warmup_ms)

    def set_telemetry(self, spec) -> None:
        """Arm telemetry before activation (a directory path or True).

        Only records the spec — attachment, and for a directory the
        opening of its files, happen in :meth:`activate` — so calling
        this from the sweep executor's
        :func:`~repro.experiments.forkserver.apply_delta` is
        warmup-invariant: no events, no RNG, no files, and each forked
        child opens its own sinks post-fork.
        """
        if self._started:
            raise RuntimeError("telemetry must be armed before activation")
        self._telemetry_spec = spec

    def activate(self) -> None:
        """Start the controller's feedback loop (idempotent)."""
        if self._started:
            return
        self._started = True
        if self._telemetry_spec is not None and self.telemetry is None:
            from repro.telemetry import attach_simulation

            self.telemetry = attach_simulation(self)
            if isinstance(self._telemetry_spec, str):
                self.telemetry.stream_to(self._telemetry_spec)
        self.controller.start()
        self._controller_t0 = self.cluster.env.now

    def start(self) -> None:
        """Start workload and controller processes (idempotent)."""
        self.warm()
        self.activate()

    @property
    def warmed(self) -> bool:
        """True once the warm-up phase has run."""
        return self._warmed

    @property
    def active(self) -> bool:
        """True once the controller's feedback loop has started."""
        return self._started

    def run(self, intervals: int) -> None:
        """Advance the simulation by ``intervals`` observation intervals.

        The horizon lands just *past* the interval boundary so the
        controller's end-of-interval processing is included.
        """
        if intervals < 0:
            raise ValueError("intervals must be non-negative")
        self.start()
        self._intervals_requested += intervals
        horizon = (
            self._controller_t0
            + self._intervals_requested * self.controller.interval_ms
            + 1e-3
        )
        self.cluster.env.run(until=horizon)

    def export_telemetry(self):
        """Finish the telemetry export; no-op when telemetry is off.

        Completes the directory given at construction (or via
        :meth:`set_telemetry`), which the run has streamed its trace
        into since activation.  Returns the artifact path mapping, or
        None when telemetry was never attached or no directory is known
        (``telemetry=True`` keeps the pipeline in memory only).
        """
        if self.telemetry is None or self.telemetry.outdir is None:
            return None
        from repro.telemetry.exporters import write_export

        return write_export(self.telemetry)

    # -- convenience accessors ---------------------------------------------

    @property
    def env(self):
        """The simulation environment."""
        return self.cluster.env

    def observed_rt(self, class_id: int) -> Optional[float]:
        """Most recent interval's weighted mean RT of a goal class."""
        series = self.controller.series[class_id].observed_rt
        return series.values[-1] if len(series) else None

    def satisfied(self, class_id: int) -> list:
        """Per-interval goal-satisfaction flags of a goal class."""
        return self.controller.series[class_id].satisfied

    def dedicated_bytes(self, class_id: int) -> int:
        """Current system-wide dedicated memory of a goal class."""
        return self.cluster.total_dedicated_bytes(class_id)


def default_workload(
    config: SystemConfig,
    goal_ms: float = 3.0,
    skew: float = 0.0,
    arrival_rate_per_node: float = ARRIVAL_RATE_PER_NODE,
) -> WorkloadSpec:
    """The §7.2 base workload: one goal class, one no-goal class,
    disjoint page sets, 4 pages per operation."""
    goal_pages, nogoal_pages = partition_pages(config.num_pages, 2)
    return WorkloadSpec(
        classes=[
            ClassSpec(
                class_id=0,
                goal_ms=None,
                pages=nogoal_pages,
                skew=skew,
                pages_per_op=PAGES_PER_OP,
                arrival_rate_per_node=arrival_rate_per_node,
                name="no-goal",
            ),
            ClassSpec(
                class_id=1,
                goal_ms=goal_ms,
                pages=goal_pages,
                skew=skew,
                pages_per_op=PAGES_PER_OP,
                arrival_rate_per_node=arrival_rate_per_node,
                name="goal",
            ),
        ]
    )


def build_base_experiment(
    seed: int = 0,
    goal_ms: float = 3.0,
    warmup_ms: float = 0.0,
) -> Simulation:
    """Assemble the paper's base experiment (§7.1/§7.2)."""
    config = SystemConfig()
    return Simulation(
        config=config,
        workload=default_workload(config, goal_ms=goal_ms),
        seed=seed,
        warmup_ms=warmup_ms,
    )
