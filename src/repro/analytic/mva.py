"""Mean Value Analysis for closed multiclass product-form networks.

The solver family behind the analytic fast path (:mod:`repro.analytic`):

* :func:`exact_mva` — the exact multiclass MVA recursion (Reiser &
  Lavenberg).  It walks every population vector ``n <= N`` once, so its
  cost is ``prod(N_c + 1)`` vector evaluations — fine for the small
  populations the open→closed mapping of :mod:`repro.analytic.bridge`
  produces, infeasible for large ones.
* :func:`schweitzer_mva` — the Bard/Schweitzer approximate MVA fixed
  point, whose cost is independent of the population sizes.
* :func:`solve` — picks between them by state-space size.

Stations are *load-independent queueing* stations (one FIFO/PS server;
residence ``D * (1 + Q)``) or pure *delay* stations (residence ``D``,
no queueing).  Per-class think time ``Z_c`` models the closed network's
source of new work; the bridge uses it to emulate the simulator's open
Poisson arrivals.

Everything here is plain-Python and dependency-free: a solve is a few
thousand float operations, fast enough to evaluate 1000-point goal
grids in well under a second (the ``--prescreen`` path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Station kinds: a queueing station (single load-independent server)
#: or a pure delay (infinite-server) station.
QUEUE = "queue"
DELAY = "delay"

#: Above this many population vectors, :func:`solve` switches from the
#: exact recursion to the Schweitzer fixed point.
EXACT_LIMIT = 20_000

#: The Schweitzer fixed point stops once no per-class queue length
#: moves by ``TOL`` or more, or after ``MAX_ITERATIONS`` sweeps.
TOL = 1e-8
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class Station:
    """One service station of the closed network."""

    name: str
    kind: str = QUEUE

    def __post_init__(self):
        if self.kind not in (QUEUE, DELAY):
            raise ValueError(f"unknown station kind {self.kind!r}")


@dataclass(frozen=True)
class ClosedNetwork:
    """A closed multiclass product-form queueing network.

    ``demands[c][s]`` is class ``c``'s total service demand (ms) at
    station ``s`` per passage through the network (visit count times
    per-visit service time).  ``population[c]`` customers of class
    ``c`` circulate; each spends ``think_ms[c]`` thinking between
    passages (an infinite-server term outside the station set).
    """

    stations: Tuple[Station, ...]
    class_names: Tuple[str, ...]
    demands: Tuple[Tuple[float, ...], ...]
    population: Tuple[int, ...]
    think_ms: Tuple[float, ...] = ()

    def __post_init__(self):
        if not self.stations:
            raise ValueError("need at least one station")
        if not self.class_names:
            raise ValueError("need at least one class")
        if len(self.demands) != len(self.class_names):
            raise ValueError("one demand row per class required")
        for row in self.demands:
            if len(row) != len(self.stations):
                raise ValueError("one demand per station required")
            if any(d < 0 for d in row):
                raise ValueError("demands must be non-negative")
        if len(self.population) != len(self.class_names):
            raise ValueError("one population per class required")
        if any(n < 0 for n in self.population):
            raise ValueError("populations must be non-negative")
        if self.think_ms:
            if len(self.think_ms) != len(self.class_names):
                raise ValueError("one think time per class required")
            if any(z < 0 for z in self.think_ms):
                raise ValueError("think times must be non-negative")

    @property
    def num_classes(self) -> int:
        """Number of workload classes."""
        return len(self.class_names)

    @property
    def num_stations(self) -> int:
        """Number of service stations."""
        return len(self.stations)

    def think(self, c: int) -> float:
        """Think time of class ``c`` (0 when none was given)."""
        return self.think_ms[c] if self.think_ms else 0.0

    def state_space(self) -> int:
        """Population vectors the exact recursion must evaluate."""
        size = 1
        for n in self.population:
            size *= n + 1
        return size


@dataclass
class MvaSolution:
    """Steady-state solution of a :class:`ClosedNetwork`.

    ``response_ms[c]`` is class ``c``'s mean residence time per passage
    summed over all stations (think time excluded);
    ``throughput_per_ms[c]`` its passage completion rate.  Utilizations
    and mean queue lengths are per station, ``queue_by_class[c][s]``
    per class and station.
    """

    method: str
    response_ms: List[float]
    throughput_per_ms: List[float]
    utilization: Dict[str, float]
    queue_length: Dict[str, float]
    queue_by_class: List[List[float]] = field(default_factory=list)
    iterations: int = 1


def _finalize(
    network: ClosedNetwork,
    method: str,
    response: Sequence[float],
    throughput: Sequence[float],
    queue_by_class: Sequence[Sequence[float]],
    iterations: int,
) -> MvaSolution:
    """Assemble the solution object from per-class results."""
    utilization: Dict[str, float] = {}
    queue_length: Dict[str, float] = {}
    for s, station in enumerate(network.stations):
        util = sum(
            throughput[c] * network.demands[c][s]
            for c in range(network.num_classes)
        )
        utilization[station.name] = util
        queue_length[station.name] = sum(
            row[s] for row in queue_by_class
        )
    return MvaSolution(
        method=method,
        response_ms=list(response),
        throughput_per_ms=list(throughput),
        utilization=utilization,
        queue_length=queue_length,
        queue_by_class=[list(row) for row in queue_by_class],
        iterations=iterations,
    )


def exact_mva(network: ClosedNetwork) -> MvaSolution:
    """Solve the network with the exact multiclass MVA recursion.

    Walks population vectors in order of total population; for each
    vector ``n`` and class ``c`` with ``n_c > 0`` the arrival theorem
    gives the residence at a queueing station as
    ``D_cs * (1 + Q_s(n - e_c))``.  Exact for product-form networks —
    the theory anchor the property tests and the cross-validation
    harness compare against.
    """
    C = network.num_classes
    S = network.num_stations
    demands = network.demands
    queueing = [s for s in range(S) if network.stations[s].kind == QUEUE]
    delay_ms = [
        sum(
            demands[c][s]
            for s in range(S)
            if network.stations[s].kind == DELAY
        )
        for c in range(C)
    ]
    N = network.population

    # Station queue lengths by population vector, seeded at zero load.
    queues: Dict[Tuple[int, ...], List[float]] = {
        (0,) * C: [0.0] * S
    }
    # Per-class results at the full population.
    response = [0.0] * C
    throughput = [0.0] * C
    queue_by_class = [[0.0] * S for _ in range(C)]

    # Enumerate vectors n <= N in order of total population so every
    # n - e_c is already solved.
    levels: List[List[Tuple[int, ...]]] = [
        [] for _ in range(sum(N) + 1)
    ]

    def vectors(prefix: Tuple[int, ...], c: int) -> None:
        if c == C:
            levels[sum(prefix)].append(prefix)
            return
        for n_c in range(N[c] + 1):
            vectors(prefix + (n_c,), c + 1)

    vectors((), 0)

    for total in range(1, sum(N) + 1):
        for n in levels[total]:
            station_queue = [0.0] * S
            for c in range(C):
                if n[c] == 0:
                    continue
                reduced = n[:c] + (n[c] - 1,) + n[c + 1:]
                prev = queues[reduced]
                resid = [0.0] * S
                for s in queueing:
                    d = demands[c][s]
                    if d:
                        resid[s] = d * (1.0 + prev[s])
                r_total = sum(resid) + delay_ms[c]
                x = n[c] / (network.think(c) + r_total)
                for s in range(S):
                    if network.stations[s].kind == DELAY:
                        resid[s] = demands[c][s]
                    station_queue[s] += x * resid[s]
                if n == N:
                    response[c] = r_total
                    throughput[c] = x
                    queue_by_class[c] = [x * r for r in resid]
            queues[n] = station_queue
        # Vectors below the previous level can no longer be referenced.
        if total >= 2:
            for stale in levels[total - 2]:
                queues.pop(stale, None)

    return _finalize(
        network, "exact", response, throughput, queue_by_class,
        iterations=network.state_space(),
    )


def schweitzer_mva(network: ClosedNetwork) -> MvaSolution:
    """Solve the network with the Bard/Schweitzer approximate MVA.

    The arrival-theorem queue ``Q_s(N - e_c)`` is estimated from the
    full-population queue by scaling the tagged class's own share:
    ``Q_s^(c) ≈ Q_s - Q_cs / N_c``.  The fixed point is iterated until
    the largest per-class queue-length change drops below ``TOL``.
    Exact at single-class ``N = 1``.  Accuracy is utilization-bound:
    within ~5% of exact below ~0.7 bottleneck utilization, degrading
    toward ~25% at saturation (which the bridge's saturation guard
    never reaches); see ``tests/test_analytic_property.py``.
    """
    C = network.num_classes
    S = network.num_stations
    demands = network.demands
    kinds = [st.kind for st in network.stations]
    N = network.population

    active = [c for c in range(C) if N[c] > 0]
    # Seed: each class's customers spread evenly over its nonzero-demand
    # queueing stations.
    queue = [[0.0] * S for _ in range(C)]
    for c in active:
        spots = [
            s for s in range(S) if kinds[s] == QUEUE and demands[c][s] > 0
        ]
        for s in spots:
            queue[c][s] = N[c] / len(spots)

    response = [0.0] * C
    throughput = [0.0] * C
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        delta = 0.0
        station_total = [
            sum(queue[c][s] for c in active) for s in range(S)
        ]
        new_queue = [[0.0] * S for _ in range(C)]
        for c in active:
            resid = [0.0] * S
            for s in range(S):
                d = demands[c][s]
                if not d:
                    continue
                if kinds[s] == DELAY:
                    resid[s] = d
                else:
                    others = station_total[s] - queue[c][s] / N[c]
                    resid[s] = d * (1.0 + others)
            r_total = sum(resid)
            x = N[c] / (network.think(c) + r_total)
            response[c] = r_total
            throughput[c] = x
            for s in range(S):
                q = x * resid[s]
                new_queue[c][s] = q
                delta = max(delta, abs(q - queue[c][s]))
        queue = new_queue
        if delta < TOL:
            break

    return _finalize(
        network, "schweitzer", response, throughput, queue,
        iterations=iterations,
    )


def solve(
    network: ClosedNetwork,
    method: str = "auto",
) -> MvaSolution:
    """Solve ``network``, choosing the solver by state-space size.

    ``method`` is ``'auto'`` (exact when the population state space is
    at most ``EXACT_LIMIT`` vectors, Schweitzer otherwise), ``'exact'``
    or ``'schweitzer'``.
    """
    if method not in ("auto", "exact", "schweitzer"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = (
            "exact" if network.state_space() <= EXACT_LIMIT
            else "schweitzer"
        )
    if method == "exact":
        return exact_mva(network)
    return schweitzer_mva(network)
