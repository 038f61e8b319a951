"""Closed-form oracle for the MVA solvers.

The single-class, single-queueing-station, delay-source network (the
M/M/1//N "machine repairman" model) has an independent closed form,
against which the tests cross-check :func:`repro.analytic.mva.exact_mva`
and :func:`repro.analytic.mva.schweitzer_mva`.
"""

from __future__ import annotations

import math
from typing import Tuple


def machine_repairman(
    population: int, demand_ms: float, think_ms: float
) -> Tuple[float, float]:
    """Closed-form M/M/1//N ("machine repairman") solution.

    The single-class, single-queueing-station, delay-source special
    case has an independent closed form via the Erlang-like product:
    ``pi_k ∝ N!/(N-k)! * (D/Z)^k``.  Returns ``(response_ms,
    throughput_per_ms)`` — the cross-check for :func:`exact_mva` in the
    property tests.
    """
    if population < 1:
        raise ValueError("need at least one customer")
    if demand_ms <= 0 or think_ms <= 0:
        raise ValueError("demand and think time must be positive")
    rho = demand_ms / think_ms
    # Unnormalized queue-length distribution at the station.
    weights = []
    w = 1.0
    for k in range(population + 1):
        if k:
            w *= (population - k + 1) * rho
        weights.append(w)
    total = math.fsum(weights)
    p0 = weights[0] / total
    throughput = (1.0 - p0) / demand_ms
    response = population / throughput - think_ms
    return response, throughput
