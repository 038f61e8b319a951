"""repro — goal-oriented distributed buffer management.

A full reproduction of *"Managing Distributed Memory to Meet Multiclass
Workload Response Time Goals"* (Sinnwell & König, ICDE 1999): an online
feedback method that partitions the aggregate buffer memory of a
network of workstations into per-class dedicated pools so that
user-specified response time goals are met, built on top of a
self-contained discrete-event simulation of the cluster.

Quickstart::

    from repro import build_base_experiment

    sim = build_base_experiment(seed=1)
    sim.run(intervals=40)
    print(sim.controller.series[1].observed_rt.values[-1])

Package layout:

- :mod:`repro.sim` — discrete-event simulation kernel.
- :mod:`repro.cluster` — NOW substrate (CPU, disk, network, directory).
- :mod:`repro.bufmgr` — buffer pools, heat, cost-based replacement.
- :mod:`repro.workload` — multiclass synthetic workloads.
- :mod:`repro.core` — the goal-oriented partitioning algorithm.
- :mod:`repro.baselines` — fragment fencing, class fencing, and friends.
- :mod:`repro.faults` — deterministic fault injection (crashes, message
  loss, latency spikes, disk slowdowns) for resilience experiments.
- :mod:`repro.experiments` — the paper's tables and figures.
"""

from repro.bufmgr import AccessLevel, NO_GOAL_CLASS
from repro.cluster import Cluster, SystemConfig
from repro.core import GoalOrientedController
from repro.experiments.runner import Simulation, build_base_experiment
from repro.workload import ClassSpec, WorkloadGenerator, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "AccessLevel",
    "ClassSpec",
    "Cluster",
    "GoalOrientedController",
    "NO_GOAL_CLASS",
    "Simulation",
    "SystemConfig",
    "WorkloadGenerator",
    "WorkloadSpec",
    "build_base_experiment",
    "__version__",
]
