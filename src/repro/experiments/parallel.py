"""Process-parallel experiment replication.

The paper's protocols replicate independent seeded simulations — until
a confidence target is met (Table 2) or over a fixed parameter sweep
(§7.4).  Each replicate is a self-contained single-process simulation,
so the only way to use more than one core is to farm replicates out to
worker *processes*; this module provides the shared machinery:

- :func:`derive_replicate_seed` — the deterministic seed of replicate
  ``i``, shared by the serial and parallel paths so ``--jobs N`` can
  never change *which* simulations run;
- :func:`run_tasks` — order-preserving process-pool map (results are
  merged by task index, never by completion order);
- :func:`replicate_with_stopping` — the sequential stopping rule of the
  replication protocol, evaluated over the *index-ordered prefix* of
  results.  Workers may finish in any order and waves may overshoot,
  but the merged prefix is exactly what a serial run would have kept,
  so ``jobs=N`` and ``jobs=1`` produce bit-identical statistics.

``jobs=1`` (the default everywhere) never touches the pool: it runs the
historical in-process loop unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

#: Upper bound on worker processes when ``jobs=0`` asks for "all cores".
MAX_AUTO_JOBS = 32


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: 0 means all cores, N means N."""
    if jobs == 0:
        return min(os.cpu_count() or 1, MAX_AUTO_JOBS)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for auto), got {jobs}")
    return jobs


def derive_replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic seed of replicate ``index``.

    The contract is intentionally the historical ``base_seed + index``:
    every replication loop in the repository used it before the
    parallel runner existed, so serial results stay bit-exact and the
    parallel path inherits the same seed set.  Named RNG streams
    (:class:`~repro.sim.rng.RandomStreams`) already decorrelate nearby
    integer seeds.
    """
    return base_seed + index


def run_tasks(
    fn: Callable[..., T],
    tasks: Sequence,
    jobs: int = 1,
) -> List[T]:
    """Map a picklable ``fn`` over ``tasks``, merging by task index.

    With ``jobs <= 1`` this is a plain in-process loop.  With more, the
    tasks run on a :class:`ProcessPoolExecutor`; results are collected
    as they complete but slotted by their submission index, so the
    returned list is independent of completion order.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    results: List = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {
            pool.submit(fn, task): index for index, task in enumerate(tasks)
        }
        for future in as_completed(futures):
            results[futures[future]] = future.result()
    return results


def replicate_with_stopping(
    worker: Callable[[int], T],
    min_replications: int,
    max_replications: int,
    stop: Callable[[List[T]], bool],
    jobs: int = 1,
) -> List[T]:
    """Run replicates 0..max-1 under the sequential stopping rule.

    ``worker(index)`` produces replicate ``index`` (it must be
    picklable for ``jobs > 1`` — use ``functools.partial`` over a
    module-level function).  ``stop(prefix)`` is the pure stopping
    predicate, consulted on every index-ordered prefix of length >=
    ``min_replications``; the first prefix it accepts is returned.

    The parallel path runs replicates in waves of ``jobs``, then
    replays the *same* prefix checks the serial loop would have made —
    extra replicates computed past the stopping point are discarded, so
    the merged result is identical for any ``jobs``.
    """
    if max_replications < 1:
        return []
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        results: List[T] = []
        for index in range(max_replications):
            results.append(worker(index))
            if len(results) >= min_replications and stop(results):
                break
        return results

    completed: dict = {}
    with ProcessPoolExecutor(
        max_workers=min(jobs, max_replications)
    ) as pool:
        next_index = 0
        while next_index < max_replications:
            wave = range(
                next_index, min(next_index + jobs, max_replications)
            )
            futures = {pool.submit(worker, i): i for i in wave}
            for future in as_completed(futures):
                completed[futures[future]] = future.result()
            next_index = wave[-1] + 1
            # Replay the serial prefix checks over everything done so
            # far (order-independent: keyed by replicate index).
            prefix: List[T] = []
            for index in range(next_index):
                prefix.append(completed[index])
                if len(prefix) >= min_replications and stop(prefix):
                    return prefix
    return [completed[index] for index in range(max_replications)]
