"""The sweep executor: every experiment sweep runs through :func:`run_sweep`.

A sweep is a list of :class:`WarmGroup`\\ s.  Each group is one
``build`` (a picklable :func:`functools.partial` of a module-level
builder returning an un-warmed
:class:`~repro.experiments.runner.Simulation`), its points (one
:class:`WarmDelta` each: the goals the point re-targets and the
``label`` naming its telemetry subdirectory), and one picklable
``measure`` that runs the measured horizon and returns the point's
result.  Every point runs **build → warm → delta → measure**; the
executor only decides where.

The warm-up trajectory is independent of the response time goals: the
controller only *observes* during warm-up, and goals never reach the
workload generator, the cluster, or any RNG stream before the
controller is activated.  Points of one group can therefore share one
warmed simulation.  A warmed simulation is not picklable (it holds
live generator coroutines, the event heap and primed RNG streams), so
the sharing mechanism is ``os.fork()``: the parent builds and warms a
group **once**, then forks one child per point.  Each child continues
from the copy-on-write memory image, applies its delta, measures, and
streams its pickled result back over a pipe — bit-identical to the
same point run cold from scratch.

:func:`run_sweep` does each of these jobs exactly once:

* plans the mode with :func:`plan_sweep` ('fork' or 'cold');
* forks every group of more than one point off its warmed parent,
  ``jobs`` children at a time;
* runs every other point cold through
  :func:`~repro.experiments.parallel.run_tasks`, so ``jobs`` also
  parallelizes sweeps of singleton groups;
* arms telemetry for ``<telemetry>/<label>`` inside :func:`apply_delta`
  (the pipeline attaches at activation, files open at export — both
  after the fork, so each child writes its own sink);
* merges the point directories in group-major point order, whatever
  order the points finished in;
* appends the sweep-level ``records`` (e.g. the analytic ``prescreen``
  record) to the merged trace.

:func:`apply_delta` guards the fork at runtime on both paths: it
fingerprints the simulation (clock, event-heap occupancy, scheduling
sequence, every RNG-stream state) before and after the delta and
raises :class:`WarmupInvarianceError` on any perturbation.  On
platforms without ``os.fork`` every point runs cold.
"""

from __future__ import annotations

import os
import pickle
import selectors
import traceback
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.parallel import resolve_jobs, run_tasks
from repro.experiments.runner import Simulation

#: Chunk size for draining child result pipes.
_PIPE_CHUNK = 1 << 16


class WarmupInvarianceError(RuntimeError):
    """A sweep-point delta touched state that feeds the warm-up."""


def supports_fork() -> bool:
    """Can this platform run the fork path at all?"""
    return hasattr(os, "fork") and hasattr(os, "pipe")


@dataclass(frozen=True)
class WarmDelta:
    """One sweep point: the goals it re-targets, and its label.

    ``goals`` maps goal class ids to response time goals, applied via
    ``controller.set_goal`` — state-equivalent to having built the
    simulation with that goal, because coordinators are untouched
    during warm-up.  ``label`` names the point's telemetry
    subdirectory and its entry in the merged trace.
    """

    goals: Tuple[Tuple[int, float], ...] = ()
    label: str = ""

    @staticmethod
    def for_goals(goals: Mapping[int, float], label: str = "") -> "WarmDelta":
        """Delta that re-targets the given goal classes."""
        return WarmDelta(goals=tuple(sorted(goals.items())), label=label)


@dataclass
class WarmGroup:
    """Sweep points sharing one build, hence one warm-up trajectory.

    ``build`` constructs the un-warmed :class:`Simulation`; ``measure``
    runs the measured horizon on the warmed, adjusted simulation and
    returns a **picklable** result.  Both must themselves be picklable
    (``functools.partial`` over module-level functions): cold points
    cross a process boundary when ``jobs > 1``.
    """

    build: Callable[[], Simulation]
    deltas: Sequence[WarmDelta]
    measure: Callable[[Simulation], Any]


# -- the warm-up-invariance guard ------------------------------------


def warm_fingerprint(sim: Simulation) -> tuple:
    """Snapshot of everything a sweep-point delta must not touch.

    Covers the simulation clock, the event-heap occupancy, the global
    scheduling sequence counter, and the exact state of every named RNG
    stream.  Any delta that advances time, schedules events, or draws
    randomness changes this fingerprint.
    """
    env = sim.env
    streams = sim.cluster.rng._streams
    return (
        env._now,
        env.pending_events,
        env._seq,
        tuple(sorted(
            (name, stream.getstate())
            for name, stream in streams.items()
        )),
    )


def apply_delta(
    sim: Simulation, delta: WarmDelta, telemetry: Optional[str] = None
) -> None:
    """Apply a sweep-point delta to a warmed, not-yet-active simulation.

    Sets the delta's goals and, when ``telemetry`` is given, arms the
    export to ``<telemetry>/<label>``.  Raises
    :class:`WarmupInvarianceError` when the simulation is in the wrong
    phase (warm-up must precede controller activation — a delta after
    activation could never have produced a cold-path-identical run) or
    when applying the delta perturbs the warm fingerprint.
    """
    if sim.active:
        raise WarmupInvarianceError(
            "sweep-point delta applied after controller activation; "
            "deltas must land between warm() and activate()"
        )
    if not sim.warmed:
        raise WarmupInvarianceError(
            "sweep-point delta applied before warm-up; warm() first so "
            "the guard can certify the delta against the warmed state"
        )
    before = warm_fingerprint(sim)
    for class_id, goal_ms in delta.goals:
        sim.controller.set_goal(class_id, goal_ms)
    if telemetry is not None:
        sim.set_telemetry(os.path.join(telemetry, delta.label))
    if warm_fingerprint(sim) != before:
        raise WarmupInvarianceError(
            "sweep-point delta perturbed warm state (clock, event "
            "heap, or an RNG stream); it would not reproduce the "
            "cold-path run and cannot be forked"
        )


# -- planning ---------------------------------------------------------


def plan_sweep(warm_keys: Sequence) -> str:
    """The sweep's mode: 'fork' or 'cold'.

    ``warm_keys`` carries one hashable key per sweep point; points
    share a warmed parent exactly when their keys are equal.  The fork
    path is selected only when the platform supports ``os.fork`` and
    at least one key occurs more than once (otherwise there is no
    warm-up to amortize, e.g. every replicate has its own seed).
    """
    keys = list(warm_keys)
    if supports_fork() and len(keys) != len(set(keys)):
        return "fork"
    return "cold"


# -- execution --------------------------------------------------------


def _run_cold_point(task) -> Any:
    """The cold path: fresh simulation, same delta contract (picklable)."""
    build, delta, measure, telemetry = task
    sim = build()
    sim.warm()
    apply_delta(sim, delta, telemetry)
    return measure(sim)


def _child_main(
    write_fd: int,
    sim: Simulation,
    delta: WarmDelta,
    measure: Callable[[Simulation], Any],
    telemetry: Optional[str],
) -> None:
    """Body of a forked sweep-point child; never returns.

    The child continues from the parent's warmed memory image, applies
    its delta, runs the measured horizon, and pickles the result back.
    Failures travel the same pipe as a (kind, traceback) payload so the
    parent can re-raise with full context.  ``os._exit`` skips atexit
    handlers and buffer flushes that belong to the parent.
    """
    try:
        try:
            apply_delta(sim, delta, telemetry)
            payload = pickle.dumps(
                ("ok", measure(sim)), protocol=pickle.HIGHEST_PROTOCOL
            )
        except WarmupInvarianceError as exc:
            payload = pickle.dumps(("invariance", str(exc)))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
        written = 0
        while written < len(payload):
            written += os.write(write_fd, payload[written:])
        os.close(write_fd)
    finally:
        os._exit(0)


def _fork_group(
    group: WarmGroup, jobs: int, telemetry: Optional[str]
) -> List[Any]:
    """Warm ``group`` once and fork one child per point, ``jobs`` at a time.

    Results are slotted by point index, never by completion order, so
    the returned list is independent of scheduling — the same contract
    as :func:`repro.experiments.parallel.run_tasks`.  Pipes are drained
    while children run (a child producing more than the pipe buffer
    would otherwise deadlock against a parent waiting on exit).
    """
    sim = group.build()
    sim.warm()
    results: List[Any] = [None] * len(group.deltas)
    sel = selectors.DefaultSelector()
    pending: dict = {}  # read fd -> (index, pid, bytearray)

    def reap(fd: int) -> None:
        index, pid, buf = pending.pop(fd)
        sel.unregister(fd)
        os.close(fd)
        _, status = os.waitpid(pid, 0)
        if not buf:
            raise RuntimeError(
                f"forked sweep point {index} died without a result "
                f"(wait status {status})"
            )
        kind, value = pickle.loads(bytes(buf))
        if kind == "invariance":
            raise WarmupInvarianceError(value)
        if kind == "error":
            raise RuntimeError(
                f"forked sweep point {index} failed:\n{value}"
            )
        results[index] = value

    def drain_once() -> None:
        for key, _ in sel.select():
            fd = key.fd
            chunk = os.read(fd, _PIPE_CHUNK)
            if chunk:
                pending[fd][2].extend(chunk)
            else:
                reap(fd)

    try:
        for index, delta in enumerate(group.deltas):
            while len(pending) >= jobs:
                drain_once()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                # Inherited read ends of sibling pipes are harmless for
                # the parent's EOF detection (that hangs off the write
                # ends), and os._exit drops them with the process.
                _child_main(write_fd, sim, delta, group.measure, telemetry)
            os.close(write_fd)
            pending[read_fd] = (index, pid, bytearray())
            sel.register(read_fd, selectors.EVENT_READ)
        while pending:
            drain_once()
    finally:
        for fd, (_, pid, _) in list(pending.items()):
            sel.unregister(fd)
            os.close(fd)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        pending.clear()
        sel.close()
    return results


def run_sweep(
    groups: Sequence[WarmGroup],
    jobs: int = 1,
    telemetry: Optional[str] = None,
    records: Sequence[Dict] = (),
) -> Tuple[str, List[List[Any]]]:
    """Run every point of every group; return ``(mode, results)``.

    ``mode`` is the planned mode ('fork' or 'cold'); ``results`` holds
    one list per group, in point order.  In fork mode each group of
    more than one point warms once and forks its points; every other
    point runs cold — fresh build, warm, the same delta — through
    :func:`~repro.experiments.parallel.run_tasks`, so both paths are
    bit-identical by construction.  ``telemetry`` (a directory) exports
    each point to ``<telemetry>/<label>``, merges the point directories
    in group-major point order and appends ``records`` to the merged
    trace.
    """
    jobs = resolve_jobs(jobs)
    mode = plan_sweep(
        [key for key, group in enumerate(groups) for _ in group.deltas],
    )

    def forked(group: WarmGroup) -> bool:
        return mode == "fork" and len(group.deltas) > 1

    results: List[List[Any]] = [[None] * len(g.deltas) for g in groups]
    cold = [
        (g, p)
        for g, group in enumerate(groups) if not forked(group)
        for p in range(len(group.deltas))
    ]
    tasks = [
        (groups[g].build, groups[g].deltas[p], groups[g].measure, telemetry)
        for g, p in cold
    ]
    for (g, p), result in zip(cold, run_tasks(_run_cold_point, tasks, jobs)):
        results[g][p] = result
    for g, group in enumerate(groups):
        if forked(group):
            results[g] = _fork_group(group, jobs, telemetry)
    if telemetry is not None:
        from repro.telemetry.exporters import (
            append_trace_records,
            merge_point_dirs,
        )

        merge_point_dirs(telemetry, [
            (delta.label, os.path.join(telemetry, delta.label))
            for group in groups for delta in group.deltas
        ])
        if records:
            append_trace_records(telemetry, records)
    return mode, results
