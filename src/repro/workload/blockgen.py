"""Block-drawn arrival variates: the vectorized workload front-end.

The classic front-end runs one generator coroutine per (node, class)
pair, and every arrival pays a named-stream dictionary lookup, an
``expovariate`` call, a fresh ``Timeout`` and — per page — another
stream lookup plus an alias-method draw.  At 256 nodes × k classes
that bookkeeping dominates the arrival path.

This module replaces the N×k coroutines with **one dispatcher per
node**, a handler the kernel calls once per arrival (no process, no
generator frame), that walks precomputed variate columns:

- :class:`ExponentialColumn` pre-draws ``-log(1 - u)`` gap factors in
  fixed-size blocks from the stream's existing ``random()`` sequence.
  ``expovariate(lambd)`` in CPython is exactly
  ``-log(1.0 - random()) / lambd``, so dividing a stored factor by the
  current rate reproduces the sequential draw bit for bit — and keeps
  the block *rate independent*: an arrival-rate change mid-block
  simply rescales the not-yet-consumed factors.
- :class:`ZipfColumn` pre-draws raw page uniforms (``array('d')``) and
  eagerly transforms them to Zipf ranks (``array('l')``) through the
  class's alias table.  The raw uniforms are kept so a mid-block page
  set or skew change re-transforms only the unconsumed tail under the
  new sampler — consumption order and variate identity never change.

**Draw-order contract** (pinned by the block-equivalence property
test): for every stream, the i-th variate consumed through a column
equals the i-th variate the sequential front-end would have drawn,
for any block size and any refill point.  Named streams are
independent, so pre-drawing one stream in blocks cannot perturb any
other; the golden arrival trace is unchanged.

Arrival *coalescing* — fusing back-to-back same-class operations into
one fetch-chain run — is deliberately **not** done here: open
system operations overlap in time and each one carries its own
response-time observation, so fusing them would change contention and
per-class statistics.  The batching win lives below, in the cluster's
fetch-chain access path.
"""

from __future__ import annotations

import math
from array import array
from typing import List

from repro.sim.engine import Initialize, pooled_timeout_at

#: Variates drawn per refill.  Large enough to amortize stream/attr
#: lookups, small enough that goal-sweep workloads (seconds of sim
#: time) do not pre-draw far past the horizon.
DEFAULT_BLOCK = 256


class ExponentialColumn:
    """Pre-drawn ``-log(1 - u)`` factors for one exponential stream.

    Dividing :meth:`next_neglog` by the rate ``lambd`` reproduces
    ``stream.expovariate(lambd)`` exactly (same float operations in the
    same order on the same uniform), which is why the column stores the
    rate-independent factor rather than finished gaps.
    """

    __slots__ = ("stream", "block", "col", "cursor")

    def __init__(self, stream, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError("block size must be >= 1")
        self.stream = stream
        self.block = block
        self.col = array("d")
        self.cursor = 0

    def refill(self) -> None:
        """Draw the next ``block`` factors from the stream, in order."""
        rnd = self.stream.random
        log = math.log
        self.col = array(
            "d", [-log(1.0 - rnd()) for _ in range(self.block)]
        )
        self.cursor = 0

    def next_neglog(self) -> float:
        """The next ``-log(1 - u)`` factor (refills on exhaustion)."""
        cur = self.cursor
        col = self.col
        if cur >= len(col):
            self.refill()
            cur = 0
            col = self.col
        self.cursor = cur + 1
        return col[cur]


class ZipfColumn:
    """Pre-drawn page uniforms and their Zipf ranks for one stream.

    Ranks are transformed eagerly at refill through ``sampler``'s alias
    table; the raw uniforms are retained so :meth:`retarget` can
    re-transform the unconsumed tail when the class's page distribution
    changes mid-block.
    """

    __slots__ = ("stream", "block", "uniforms", "ranks", "cursor", "_sampler")

    def __init__(self, stream, sampler, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError("block size must be >= 1")
        self.stream = stream
        self.block = block
        self.uniforms = array("d")
        self.ranks = array("l")
        self.cursor = 0
        self._sampler = sampler

    def refill(self) -> None:
        """Draw the next ``block`` uniforms and transform them."""
        rnd = self.stream.random
        uniforms = array("d", [rnd() for _ in range(self.block)])
        self.uniforms = uniforms
        transform = self._sampler.sample_from_uniform
        self.ranks = array("l", [transform(u) for u in uniforms])
        self.cursor = 0

    def retarget(self, sampler) -> None:
        """Switch to ``sampler``, re-transforming the unconsumed tail.

        The uniforms themselves are untouched — each pending variate is
        simply mapped through the new alias table, exactly as the
        sequential front-end would map a freshly drawn uniform through
        the picker in force at consumption time.
        """
        old = self._sampler
        self._sampler = sampler
        if (
            sampler.num_items == old.num_items
            and sampler.theta == old.theta
        ):
            return  # identical distribution — ranks already correct
        uniforms = self.uniforms
        cur = self.cursor
        if cur < len(uniforms):
            transform = sampler.sample_from_uniform
            ranks = self.ranks
            for i in range(cur, len(uniforms)):
                ranks[i] = transform(uniforms[i])

    def next_rank(self) -> int:
        """The next Zipf rank (refills on exhaustion)."""
        cur = self.cursor
        ranks = self.ranks
        if cur >= len(ranks):
            self.refill()
            cur = 0
            ranks = self.ranks
        self.cursor = cur + 1
        return ranks[cur]


class ClassStream:
    """Block-drawn arrival state for one (node, class) pair.

    ``spec``/``picker``/``lambd`` mirror the bindings the sequential
    loop holds across its sleep: the spec read *before* an arrival's
    gap governs both that gap's rate and the pages drawn at the
    arrival.  :meth:`rebind` refreshes them after each arrival, exactly
    where the sequential loop re-reads ``spec_for``.
    """

    __slots__ = ("class_id", "spec", "picker", "lambd", "gaps", "pages", "next_t")

    def __init__(self, generator, node_id: int, class_spec, now: float,
                 block: int = DEFAULT_BLOCK):
        rng = generator.cluster.rng
        class_id = class_spec.class_id
        self.class_id = class_id
        self.spec = class_spec
        self.picker = generator._picker_for(class_spec)
        # The sequential path calls expovariate(1.0 / mean) with
        # mean = 1.0 / rate; fold the floats identically.
        mean = 1.0 / class_spec.rate_for(node_id)
        self.lambd = 1.0 / mean
        self.gaps = ExponentialColumn(
            rng.stream(f"arrivals/n{node_id}/c{class_id}"), block
        )
        self.pages = ZipfColumn(
            rng.stream(f"pages/n{node_id}/c{class_id}"),
            self.picker.sampler, block,
        )
        self.next_t = now + self.gaps.next_neglog() / self.lambd

    def rebind(self, generator, node_id: int) -> None:
        """Re-read the class spec (evolving workloads, §7.2)."""
        spec = generator.spec.spec_for(self.class_id)
        if spec is not self.spec:
            self.spec = spec
            mean = 1.0 / spec.rate_for(node_id)
            self.lambd = 1.0 / mean
            picker = generator._picker_for(spec)
            if picker is not self.picker:
                self.picker = picker
                self.pages.retarget(picker.sampler)


class NodeDispatcher:
    """Merged block-drawn arrival front-end for one node, as a handler.

    Replaces the node's k per-class arrival coroutines.  The kernel
    calls :meth:`_resume` through the ``_fast_proc`` slot of the
    dispatcher's pooled timeout, so an arrival costs one heap event and
    no generator frame.  Each call lands on a precomputed absolute
    timestamp (``pooled_timeout_at`` avoids the ``now + delta``
    re-rounding a relative timeout would introduce), draws the due
    class's pages, schedules the earliest pending arrival across the
    node's classes (ties go to the class listed first in the workload
    spec), and only then starts the operation: pushing the next-arrival
    timeout first keeps every pending event in the order a dispatcher
    process that spawned an operation process would produce.
    Construction schedules the first call as an URGENT event, exactly
    where ``env.process`` would start a process.
    """

    __slots__ = ("generator", "node_id", "block", "env", "streams", "_due")

    def __init__(self, generator, node_id: int, block: int = DEFAULT_BLOCK):
        self.generator = generator
        self.node_id = node_id
        self.block = block
        self.env = generator.cluster.env
        #: One :class:`ClassStream` per workload class, built by the
        #: first call (at the start event's instant).
        self.streams: List[ClassStream] = []
        self._due = None
        Initialize(self.env, self)

    def _resume(self, event) -> None:
        env = self.env
        generator = self.generator
        node_id = self.node_id
        streams = self.streams
        stream = self._due
        if stream is None:  # the start event
            streams = self.streams = [
                ClassStream(generator, node_id, class_spec, env._now,
                            self.block)
                for class_spec in generator.spec.classes
            ]
            if not streams:
                return
            spec = None
        else:
            spec = stream.spec
            page_ids = stream.picker.pages
            column = stream.pages
            pages = [
                page_ids[column.next_rank()]
                for _ in range(spec.pages_per_op)
            ]
            stream.rebind(generator, node_id)
            stream.next_t = (
                env._now + stream.gaps.next_neglog() / stream.lambd
            )
        due = streams[0]
        when = due.next_t
        for other in streams:
            if other.next_t < when:
                due = other
                when = other.next_t
        self._due = due
        pooled_timeout_at(env, when)._fast_proc = self
        if spec is not None:
            generator._start_operation(node_id, spec, pages)
