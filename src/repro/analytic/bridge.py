"""Bridge from simulator configuration to the analytic queueing model.

Maps a :class:`~repro.cluster.config.SystemConfig`, a
:class:`~repro.workload.spec.WorkloadSpec`, and a buffer-allocation
vector to a :class:`~repro.analytic.mva.ClosedNetwork`, in three steps:

1. **allocation → hit profile** — how often a page access is served
   from the local cache, a remote cache, or the home disk, given the
   frames the class can hold (dedicated pool plus its share of the
   no-goal pool) and its access skew;
2. **hit profile → service demands** — per-operation service demand at
   the CPUs, the disks, and the shared network medium, mirroring the
   charges of :meth:`repro.cluster.cluster.Cluster.access_run` term by
   term (buffer lookup, remote-request CPU, page handling, request and
   ship wire times, disk reads);
3. **open → closed mapping** — the simulator is an open system
   (Poisson arrivals per node per class); MVA solves closed networks.
   Each class becomes ``N_c`` customers with think time
   ``Z_c = N_c / lambda_c``, with ``N_c`` scaled (``slack`` times the
   expected number in system) so throughput approaches the open
   arrival rate and the closed response time converges to the open
   one.

Where the simulator deliberately breaks the product-form assumptions —
deterministic service times, cache-state dependence — the model is a
principled approximation; see docs/analytic.md for the error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analytic.mva import (
    QUEUE,
    ClosedNetwork,
    Station,
    solve,
)
from repro.bufmgr.manager import NO_GOAL_CLASS
from repro.cluster.config import SystemConfig
from repro.cluster.messages import MessageKind, message_size
from repro.workload.spec import ClassSpec, WorkloadSpec

#: Closed-population slack: N_c = SLACK * (expected number of class-c
#: operations in system).  Larger = closer to the open system but a
#: bigger exact-MVA state space.
SLACK = 64.0
#: Smallest per-class closed population.
MIN_POPULATION = 8


@dataclass(frozen=True)
class HitProfile:
    """Where a page access of one class is served from."""

    local: float
    remote: float
    disk: float

    def __post_init__(self):
        for p in (self.local, self.remote, self.disk):
            if p < -1e-12 or p > 1.0 + 1e-12:
                raise ValueError("hit probabilities must lie in [0, 1]")
        if abs(self.local + self.remote + self.disk - 1.0) > 1e-9:
            raise ValueError("hit probabilities must sum to 1")


@dataclass(frozen=True)
class AnalyticPrediction:
    """Analytic steady-state prediction for one cluster configuration.

    ``response_ms`` maps class id → predicted mean operation response
    time; ``saturated`` marks configurations whose open-system
    utilization reaches 1 at some station (response times are
    ``inf`` there and no closed network is solved).
    """

    response_ms: Dict[int, float]
    throughput_per_ms: Dict[int, float]
    utilization: Dict[str, float]
    hit: Dict[int, HitProfile]
    population: Dict[int, int]
    method: str
    iterations: int
    saturated: bool = False

    def response_of(self, class_id: int) -> float:
        """Predicted mean response time (ms) for one workload class."""
        return self.response_ms[class_id]


# -- step 1: allocation -> hit profile --------------------------------


def _zipf_prefix(num_pages: int, theta: float, prefix: int) -> float:
    """Total access probability of the ``prefix`` hottest pages."""
    if prefix <= 0:
        return 0.0
    if prefix >= num_pages:
        return 1.0
    weights = [rank ** (-theta) for rank in range(1, num_pages + 1)]
    return math.fsum(weights[:prefix]) / math.fsum(weights)


def class_frames(
    config: SystemConfig,
    workload: WorkloadSpec,
    allocation: Mapping[int, int],
) -> Dict[int, float]:
    """Frames per node each class can effectively cache its pages in.

    A class with a dedicated pool holds exactly its granted frames (§6:
    its fetches go to its own pool).  Classes without one share the
    no-goal pool; their shares are split proportionally to page-access
    rate, which is how an unbiased replacement policy fills the pool in
    steady state.
    """
    total = config.buffer_pages_per_node
    frames: Dict[int, float] = {}
    dedicated_total = 0
    undedicated: List[ClassSpec] = []
    for spec in workload.classes:
        nbytes = allocation.get(spec.class_id, 0)
        pages = min(nbytes // config.page_size, total)
        if spec.class_id != NO_GOAL_CLASS and pages > 0:
            frames[spec.class_id] = float(pages)
            dedicated_total += pages
        else:
            undedicated.append(spec)
    no_goal_frames = max(total - dedicated_total, 0)
    weights = {
        spec.class_id: _total_rate(config, spec) * spec.pages_per_op
        for spec in undedicated
    }
    weight_sum = sum(weights.values())
    for spec in undedicated:
        share = weights[spec.class_id] / weight_sum if weight_sum else 0.0
        frames[spec.class_id] = no_goal_frames * share
    return frames


def hit_profile(
    config: SystemConfig, spec: ClassSpec, frames_per_node: float
) -> HitProfile:
    """Hit profile of one class given its effective per-node frames.

    * ``skew == 0`` (uniform): each node holds ``b`` of the class's
      ``P`` pages, and the cost-based replacement's last-copy benefit
      term (§6) steers the nodes toward caching *disjoint* subsets —
      duplicating a page that is already cached elsewhere scores lower
      than keeping a sole copy alive.  The cluster therefore holds
      ``min(n*b, P)`` distinct pages: a random access hits locally
      with ``b/P``, hits some remote cache with the rest of the
      distinct mass, and reaches disk only for the uncached remainder.
      (An independent-sampling model — ``disk = (1-b/P)^n`` — badly
      underestimates remote hits once ``n*b`` approaches ``P``.)
    * ``skew > 0``: a heat-ranked pool converges on the ``b`` hottest
      pages at *every* node (heat is a global statistic), so the local
      hit is the Zipf prefix mass of ``b`` and remote hits vanish —
      whatever is cached anywhere is cached locally too.
    """
    P = len(spec.pages)
    n = config.num_nodes
    b = min(frames_per_node, float(P))
    if spec.skew == 0.0:
        distinct = min(n * b, float(P))
        local = b / P
        remote = max(distinct - b, 0.0) / P
        disk = max(1.0 - distinct / P, 0.0)
    else:
        local = _zipf_prefix(P, spec.skew, int(b))
        remote = 0.0
        disk = 1.0 - local
    return HitProfile(local=local, remote=remote, disk=disk)


# -- step 2: hit profile -> service demands ---------------------------


@dataclass(frozen=True)
class OpDemands:
    """Per-operation service demand (ms) of one class, by resource."""

    cpu_total: float   # across all CPUs
    disk_total: float  # across all disks
    network: float     # on the single shared medium


def service_demands(
    config: SystemConfig, spec: ClassSpec, profile: HitProfile
) -> OpDemands:
    """Mirror the ``access_run`` charges for one operation.

    Every access pays the buffer-lookup CPU charge.  A remote hit adds
    a request wire, message+lookup CPU at the holder, a page ship, and
    page-handling CPU.  A disk access adds the disk read and handling,
    plus — when the home is remote, probability ``(n-1)/n`` under
    round-robin page homes and uniform access — the request/ship wires
    and the home's message CPU.
    """
    cpu = config.cpu
    lookup = cpu.service_ms(cpu.instructions_buffer_lookup)
    handling = cpu.service_ms(cpu.instructions_page_handling)
    message = cpu.service_ms(cpu.instructions_message)
    req_wire = config.network.transfer_ms(
        message_size(MessageKind.PAGE_REQUEST)
    )
    ship_wire = config.network.transfer_ms(
        message_size(MessageKind.PAGE_SHIP, config.page_size)
    )
    disk_read = config.disk.access_ms(config.page_size)

    n = config.num_nodes
    remote_home = (n - 1) / n if n > 1 else 0.0
    h_r, h_d = profile.remote, profile.disk

    per_access_cpu = (
        lookup
        + h_r * (message + lookup + handling)
        + h_d * (handling + remote_home * message)
    )
    per_access_net = (h_r + h_d * remote_home) * (req_wire + ship_wire)
    per_access_disk = h_d * disk_read

    A = spec.pages_per_op
    return OpDemands(
        cpu_total=A * per_access_cpu,
        disk_total=A * per_access_disk,
        network=A * per_access_net,
    )


# -- step 3: open -> closed mapping -----------------------------------


def _total_rate(config: SystemConfig, spec: ClassSpec) -> float:
    """Class arrival rate summed over all nodes (operations/ms)."""
    return sum(spec.rate_for(i) for i in range(config.num_nodes))


def build_network(
    config: SystemConfig,
    workload: WorkloadSpec,
    allocation: Optional[Mapping[int, int]] = None,
) -> Tuple[Optional[ClosedNetwork], Dict]:
    """Build the closed network for one cluster configuration.

    ``allocation`` maps class id → dedicated bytes *per node*.  Service
    demands are spread symmetrically: each operation places ``1/n`` of
    its CPU demand on each of the ``n`` CPU stations and ``1/n`` of its
    disk demand on each disk station (round-robin homes and symmetric
    arrivals make every node statistically identical); the network
    medium is one shared queueing station, exactly as in the
    simulator.  Returns ``(network, meta)``; ``network`` is None when
    some station saturates in the open system (``meta['saturated']``).
    """
    allocation = allocation or {}
    classes = sorted(workload.classes, key=lambda c: c.class_id)
    frames = class_frames(config, workload, allocation)
    profiles = {
        spec.class_id: hit_profile(config, spec, frames[spec.class_id])
        for spec in classes
    }
    demands_by_class = {
        spec.class_id: service_demands(
            config, spec, profiles[spec.class_id]
        )
        for spec in classes
    }
    rates = {
        spec.class_id: _total_rate(config, spec) for spec in classes
    }

    n = config.num_nodes
    stations = (
        [Station(f"cpu{i}", QUEUE) for i in range(n)]
        + [Station(f"disk{i}", QUEUE) for i in range(n)]
        + [Station("net", QUEUE)]
    )
    rows = []
    for spec in classes:
        d = demands_by_class[spec.class_id]
        rows.append(
            tuple([d.cpu_total / n] * n + [d.disk_total / n] * n
                  + [d.network])
        )

    # Open-system utilization check + response-time estimate (exact for
    # the M/M/1 product-form open network; an upper-bound anchor for
    # sizing the closed populations).
    utilization = [
        sum(rates[spec.class_id] * rows[c][s]
            for c, spec in enumerate(classes))
        for s in range(len(stations))
    ]
    meta: Dict = {
        "profiles": profiles,
        "frames": frames,
        "rates": rates,
        "open_utilization": {
            stations[s].name: utilization[s]
            for s in range(len(stations))
        },
    }
    if max(utilization) >= 1.0:
        meta["saturated"] = True
        return None, meta
    meta["saturated"] = False

    open_response = {
        spec.class_id: sum(
            rows[c][s] / (1.0 - utilization[s])
            for s in range(len(stations))
        )
        for c, spec in enumerate(classes)
    }
    meta["open_response"] = open_response

    population = []
    think = []
    for c, spec in enumerate(classes):
        lam = rates[spec.class_id]
        in_system = lam * open_response[spec.class_id]
        pop = max(MIN_POPULATION, math.ceil(SLACK * in_system))
        population.append(pop)
        think.append(pop / lam)

    network = ClosedNetwork(
        stations=tuple(stations),
        class_names=tuple(str(spec.class_id) for spec in classes),
        demands=tuple(rows),
        population=tuple(population),
        think_ms=tuple(think),
    )
    return network, meta


def predict_response(
    config: SystemConfig,
    workload: WorkloadSpec,
    allocation: Optional[Mapping[int, int]] = None,
    method: str = "auto",
) -> AnalyticPrediction:
    """Predict per-class steady-state response times analytically.

    The public bridge API: a cluster config + workload + allocation
    vector in, per-class mean response times (ms), throughputs, and
    station utilizations out.  Saturated configurations come back with
    ``inf`` response times instead of raising — the frontier extractor
    treats them as infeasible points.
    """
    network, meta = build_network(config, workload, allocation)
    classes = sorted(workload.classes, key=lambda c: c.class_id)
    if network is None:
        return AnalyticPrediction(
            response_ms={c.class_id: float("inf") for c in classes},
            throughput_per_ms={c.class_id: 0.0 for c in classes},
            utilization=meta["open_utilization"],
            hit=meta["profiles"],
            population={c.class_id: 0 for c in classes},
            method="saturated",
            iterations=0,
            saturated=True,
        )
    solution = solve(network, method=method)
    return AnalyticPrediction(
        response_ms={
            spec.class_id: solution.response_ms[c]
            for c, spec in enumerate(classes)
        },
        throughput_per_ms={
            spec.class_id: solution.throughput_per_ms[c]
            for c, spec in enumerate(classes)
        },
        utilization=solution.utilization,
        hit=meta["profiles"],
        population={
            spec.class_id: network.population[c]
            for c, spec in enumerate(classes)
        },
        method=solution.method,
        iterations=solution.iterations,
        saturated=False,
    )
