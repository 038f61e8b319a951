"""The fault schedule: spec grammar, clauses, and deterministic events.

A schedule is written as a semicolon-separated list of *clauses*::

    SPEC    := clause (';' clause)*
    clause  := KIND '@' TIME_MS opts          -- one-shot at TIME_MS
             | KIND ':every=' PERIOD_MS opts  -- periodic
    opts    := (':' KEY '=' VALUE)*

Supported kinds and their options (times in simulated milliseconds):

``crash``
    Node crash + cold-cache restart.  ``node`` (index or ``any``,
    default ``any``), ``restart`` (downtime before the node serves
    again, default 2000).
``netloss``
    Control-message loss episode: agent reports, allocations, and acks
    are each dropped with probability ``p`` (default 0.3) for ``dur``
    ms (default 5000).  The data path is assumed to retransmit and is
    modelled as reliable.
``netdelay``
    Latency spike: every network transfer pays ``extra`` additional ms
    (default 1.0) for ``dur`` ms (default 5000).
``diskslow``
    Disk slowdown episode on ``node`` (index or ``any``): service
    times multiply by ``factor`` (default 4.0) for ``dur`` ms (default
    5000).
``coordcrash``
    Coordinator process crash: the control plane loses its in-memory
    state (measure windows, remembered reports) and is unreachable for
    ``dur`` ms (default 5000).  On restart the coordinator opens a new
    allocation *epoch* and rebuilds its view from agent re-reports;
    allocations shipped under the dead epoch are rejected by agents.
``partition``
    Control-network partition: ``nodes`` (comma-separated indices or
    ``any``, default ``any``) lose control-plane contact with the
    coordinator and all other nodes for ``dur`` ms (default 5000).
    Data-plane transfers are assumed to reroute and stay reliable.

Validation: episode durations (``dur``) must be strictly positive, and
the one-shot crash windows of ``crash`` (with an explicit ``node``)
and ``coordcrash`` clauses must not overlap on the same target —
overlapping windows would make "which restart wins" ambiguous.

Periodic clauses additionally accept ``start`` (first occurrence,
default = one period) and ``jitter`` (uniform extra delay in [0,
jitter] ms drawn per occurrence from the seeded ``faults/schedule``
stream).  ``node=any`` is resolved per occurrence from the same
stream, so the entire schedule is a pure function of the experiment
seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.sim.rng import RandomStreams

#: Stream name all schedule randomness (jitter, ``node=any``) draws
#: from; a dedicated name keeps fault timing independent of workload
#: streams, so adding a schedule never perturbs arrivals or page draws.
SCHEDULE_STREAM = "faults/schedule"

_KINDS = (
    "crash",
    "netloss",
    "netdelay",
    "diskslow",
    "coordcrash",
    "partition",
)

#: Per-kind defaults for the optional clause keys.
_DEFAULTS = {
    "crash": {"node": "any", "restart": 2000.0},
    "netloss": {"dur": 5000.0, "p": 0.3},
    "netdelay": {"dur": 5000.0, "extra": 1.0},
    "diskslow": {"node": "any", "dur": 5000.0, "factor": 4.0},
    "coordcrash": {"dur": 5000.0},
    "partition": {"nodes": "any", "dur": 5000.0},
}

#: Keys each kind accepts (beyond the periodic-only start/jitter).
_ALLOWED_KEYS = {
    "crash": {"node", "restart"},
    "netloss": {"dur", "p"},
    "netdelay": {"dur", "extra"},
    "diskslow": {"node", "dur", "factor"},
    "coordcrash": {"dur"},
    "partition": {"nodes", "dur"},
}


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec (not yet seeded/resolved)."""

    kind: str
    #: One-shot fire time; None for periodic clauses.
    time_ms: Optional[float]
    #: Period for recurring clauses; None for one-shot clauses.
    every_ms: Optional[float] = None
    #: First occurrence of a periodic clause (defaults to one period).
    start_ms: Optional[float] = None
    #: Upper bound of the per-occurrence uniform jitter.
    jitter_ms: float = 0.0
    #: Target node: an index, or "any" for a seeded draw per occurrence.
    node: Union[int, str, None] = None
    #: Partitioned node set: a tuple of indices, or "any" for a seeded
    #: single-node draw per occurrence.
    nodes: Union[Tuple[int, ...], str, None] = None
    duration_ms: float = 0.0
    probability: float = 0.0
    factor: float = 1.0
    extra_ms: float = 0.0
    restart_delay_ms: float = 0.0

    @property
    def periodic(self) -> bool:
        """True for ``kind:every=`` clauses."""
        return self.every_ms is not None


@dataclass(frozen=True)
class FaultEvent:
    """One fully resolved injection: what happens, when, and to whom."""

    kind: str
    time_ms: float
    node: Optional[int]
    duration_ms: float = 0.0
    probability: float = 0.0
    factor: float = 1.0
    extra_ms: float = 0.0
    restart_delay_ms: float = 0.0
    #: Resolved partitioned node set (empty for other kinds).
    nodes: Tuple[int, ...] = ()


def _parse_float(key: str, value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ValueError(f"fault spec: {key}={value!r} is not a number")
    if parsed < 0:
        raise ValueError(f"fault spec: {key} must be non-negative")
    return parsed


def _parse_duration(key: str, value: str) -> float:
    """Episode durations must be strictly positive: a zero-length
    episode would silently do nothing, which is always a spec typo."""
    try:
        parsed = float(value)
    except ValueError:
        raise ValueError(f"fault spec: {key}={value!r} is not a number")
    if parsed <= 0:
        raise ValueError(
            f"fault spec: {key} must be a positive number of ms "
            f"(got {value})"
        )
    return parsed


def _parse_nodes(raw: str) -> Union[Tuple[int, ...], str]:
    """Parse a ``nodes=`` value: 'any' or a comma-separated index list."""
    if raw == "any":
        return "any"
    ids: List[int] = []
    for part in str(raw).split(","):
        try:
            index = int(part.strip())
        except (TypeError, ValueError):
            raise ValueError(
                f"fault spec: nodes={raw!r} is not a comma-separated "
                f"list of node indices or 'any'"
            )
        if index < 0:
            raise ValueError("fault spec: node index must be >= 0")
        if index in ids:
            raise ValueError(
                f"fault spec: nodes={raw!r} lists node {index} twice"
            )
        ids.append(index)
    return tuple(ids)


def _parse_clause(text: str) -> FaultClause:
    parts = text.strip().split(":")
    head = parts[0].strip()
    opts: dict = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"fault spec: malformed option {part!r}")
        key, _, value = part.partition("=")
        opts[key.strip()] = value.strip()

    if "@" in head:
        kind, _, when = head.partition("@")
        kind = kind.strip()
        time_ms: Optional[float] = _parse_float("time", when)
        every = None
    else:
        kind = head
        time_ms = None
        if "every" not in opts:
            raise ValueError(
                f"fault spec: clause {text!r} needs '@TIME' or ':every=MS'"
            )
        every = _parse_float("every", opts.pop("every"))
        if every <= 0:
            raise ValueError("fault spec: every must be positive")
    if kind not in _KINDS:
        raise ValueError(
            f"fault spec: unknown fault kind {kind!r} "
            f"(expected one of {', '.join(_KINDS)})"
        )

    start = None
    jitter = 0.0
    if every is not None:
        if "start" in opts:
            start = _parse_float("start", opts.pop("start"))
        if "jitter" in opts:
            jitter = _parse_float("jitter", opts.pop("jitter"))
    allowed = _ALLOWED_KEYS[kind]
    unknown = set(opts) - allowed
    if unknown:
        raise ValueError(
            f"fault spec: {kind} does not accept "
            f"{', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )

    merged = dict(_DEFAULTS[kind])
    merged.update(opts)

    node: Union[int, str, None] = None
    if "node" in merged:
        raw = merged["node"]
        if raw == "any":
            node = "any"
        else:
            try:
                node = int(raw)
            except (TypeError, ValueError):
                raise ValueError(
                    f"fault spec: node={raw!r} is not an index or 'any'"
                )
            if node < 0:
                raise ValueError("fault spec: node index must be >= 0")

    nodes: Union[Tuple[int, ...], str, None] = None
    if "nodes" in merged:
        nodes = _parse_nodes(str(merged["nodes"]))

    probability = 0.0
    if kind == "netloss":
        probability = _parse_float("p", str(merged["p"]))
        if probability > 1.0:
            raise ValueError("fault spec: p must lie in [0, 1]")
    factor = 1.0
    if kind == "diskslow":
        factor = _parse_float("factor", str(merged["factor"]))
        if factor < 1.0:
            raise ValueError("fault spec: factor must be >= 1")
    extra = 0.0
    if kind == "netdelay":
        extra = _parse_float("extra", str(merged["extra"]))
    restart = 0.0
    if kind == "crash":
        restart = _parse_float("restart", str(merged["restart"]))
    duration = 0.0
    if "dur" in merged:
        duration = _parse_duration("dur", str(merged["dur"]))

    return FaultClause(
        kind=kind,
        time_ms=time_ms,
        every_ms=every,
        start_ms=start,
        jitter_ms=jitter,
        node=node,
        nodes=nodes,
        duration_ms=duration,
        probability=probability,
        factor=factor,
        extra_ms=extra,
        restart_delay_ms=restart,
    )


def _check_crash_overlaps(clauses: List[FaultClause]) -> None:
    """Reject one-shot crash windows that overlap on the same target.

    Only windows whose target is statically known are checked: ``crash``
    with an explicit node index, and ``coordcrash`` (whose target is
    always the coordinator).  ``node=any`` and periodic clauses resolve
    per occurrence and cannot be vetted at parse time.
    """
    windows: dict = {}
    for clause in clauses:
        if clause.periodic or clause.time_ms is None:
            continue
        if clause.kind == "crash" and isinstance(clause.node, int):
            target = f"node {clause.node}"
            end = clause.time_ms + clause.restart_delay_ms
        elif clause.kind == "coordcrash":
            target = "the coordinator"
            end = clause.time_ms + clause.duration_ms
        else:
            continue
        desc = f"{clause.kind}@{clause.time_ms:g}"
        for start0, end0, desc0 in windows.get(target, ()):
            if clause.time_ms < end0 and start0 < end:
                raise ValueError(
                    f"fault spec: overlapping crash windows on {target}: "
                    f"{desc} (down until {end:g} ms) overlaps "
                    f"{desc0} (down until {end0:g} ms)"
                )
        windows.setdefault(target, []).append(
            (clause.time_ms, end, desc)
        )


class FaultSchedule:
    """A parsed fault spec: an ordered, seedable source of fault events."""

    def __init__(self, clauses: List[FaultClause]):
        self.clauses = list(clauses)
        _check_crash_overlaps(self.clauses)

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse a spec string (see module docstring for the grammar)."""
        clauses = [
            _parse_clause(chunk)
            for chunk in spec.split(";")
            if chunk.strip()
        ]
        return cls(clauses)

    def events(
        self, rng: RandomStreams, num_nodes: int
    ) -> Iterator[FaultEvent]:
        """Resolved events in time order (lazy; periodic clauses are
        infinite).

        All randomness (jitter, ``node=any``) comes from the seeded
        ``faults/schedule`` stream; occurrences are generated in a
        deterministic heap order, so the same seed always yields the
        same event sequence.
        """
        stream = rng.stream(SCHEDULE_STREAM)

        def resolve(clause: FaultClause, time_ms: float) -> FaultEvent:
            node: Optional[int] = None
            if clause.node == "any":
                node = stream.randrange(num_nodes)
            elif clause.node is not None:
                if clause.node >= num_nodes:
                    raise ValueError(
                        f"fault spec: node {clause.node} does not exist "
                        f"(cluster has {num_nodes} nodes)"
                    )
                node = int(clause.node)
            nodes: Tuple[int, ...] = ()
            if clause.nodes == "any":
                nodes = (stream.randrange(num_nodes),)
            elif clause.nodes is not None:
                for index in clause.nodes:
                    if index >= num_nodes:
                        raise ValueError(
                            f"fault spec: node {index} does not exist "
                            f"(cluster has {num_nodes} nodes)"
                        )
                nodes = tuple(clause.nodes)
            return FaultEvent(
                kind=clause.kind,
                time_ms=time_ms,
                node=node,
                nodes=nodes,
                duration_ms=clause.duration_ms,
                probability=clause.probability,
                factor=clause.factor,
                extra_ms=clause.extra_ms,
                restart_delay_ms=clause.restart_delay_ms,
            )

        # Heap of (next occurrence time, clause index); the clause
        # index both breaks ties deterministically and orders the
        # initial jitter draws.
        heap: List[Tuple[float, int]] = []
        for index, clause in enumerate(self.clauses):
            if clause.periodic:
                first = (
                    clause.start_ms
                    if clause.start_ms is not None
                    else clause.every_ms
                )
                if clause.jitter_ms > 0:
                    first += stream.uniform(0.0, clause.jitter_ms)
            else:
                first = clause.time_ms
            heapq.heappush(heap, (first, index))

        while heap:
            time_ms, index = heapq.heappop(heap)
            clause = self.clauses[index]
            yield resolve(clause, time_ms)
            if clause.periodic:
                base = time_ms + clause.every_ms
                if clause.jitter_ms > 0:
                    base += stream.uniform(0.0, clause.jitter_ms)
                heapq.heappush(heap, (base, index))
