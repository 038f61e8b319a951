"""Core event loop of the discrete-event simulation kernel.

The design follows the classic process-interaction style: simulation
logic lives in Python generators.  A generator yields :class:`Event`
instances; the :class:`Environment` resumes the generator when the
yielded event is *triggered*.  Triggering an event schedules its
callbacks at the current simulation time; the event heap orders
callbacks by ``(time, urgency, sequence)`` so that the simulation is
fully deterministic for a fixed seed.

Time is a ``float`` in **milliseconds** by convention throughout this
project, although the kernel itself is unit-agnostic.

Hot-path design
---------------
The kernel is the substrate every experiment pays for, so the dominant
``yield env.timeout(...)`` round trip is aggressively specialized
(without changing any observable ordering — the golden-trace test pins
this down):

- every event class uses ``__slots__``, and the ``_defused`` flag is an
  ordinary slot instead of a ``getattr`` probe per dispatch;
- a *fused timeout→resume* path: when a process is the first (and
  typically only) waiter of a :class:`Timeout`, the process is stored
  in the event's ``_fast_proc`` slot and resumed directly at dispatch,
  skipping the callback-list append/iterate machinery and the bound
  method allocation it implies;
- :func:`pooled_timeout_at` is the one timeout allocator: it writes the
  slots and pushes onto the heap inline instead of chaining
  ``Event.__init__`` → ``_schedule``;
- :meth:`Environment.run` is one dispatch loop with locally bound
  queue/heappop references; ``run()`` and ``run(until=t)`` differ only
  in the stop time it compares against;
- a *timeout free list*: a fused timeout whose only waiter was resumed
  through ``_fast_proc`` is provably unreachable by simulation code
  once its dispatch returns, so the dispatch loop recycles it into
  ``Environment._pool`` (callbacks list and all) and
  :func:`pooled_timeout` / :func:`pooled_timeout_at` re-arm pooled
  records instead of allocating — the dominant allocation on the page
  access path at large node counts.  Timeouts with extra callbacks, or
  with no fused waiter, are never pooled: other code may still hold
  them.

Handlers
--------
The ``_fast_proc`` slot is a protocol, not a type: the dispatch loop
calls ``event._fast_proc._resume(event)`` on whatever object sits
there, before the event's callbacks, and clears the slot first.  A
:class:`Process` is one such object; a *handler* is any other object
with a ``_resume(event)`` method, which runs state-machine code without
a generator frame.  A handler waits for an event by storing itself in
the event's ``_fast_proc`` slot (a pooled timeout is recycled after the
call exactly as for a fused process), and ``Initialize(env, handler)``
schedules its first call as the URGENT event that would start a
process.  An exception a handler raises propagates out of
:meth:`Environment.run` unchanged.  The cluster's fetch chain, the
arrival dispatchers and the open-system workload generator (the owner
of each read-only operation's fetch chain) are handlers.

Scheduler
---------
The pending-event set is a single binary heap of ``(time, urgency,
seq, event)`` tuples; ``seq`` is unique, so the pop order is total and
deterministic.  Every push site is one ``heapq.heappush``.  Measured
peaks stay below a thousand pending events (``docs/simulation.md``
lists them), where the C heap's constant factors are hard to beat.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

#: Urgency ranks.  URGENT callbacks (event chain plumbing) run before
#: NORMAL callbacks scheduled for the same simulation time.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for illegal kernel operations (e.g. re-triggering an event)."""


class Event:
    """An occurrence that processes can wait for.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    is called (which schedules it on the event queue), and is
    *processed* once the environment has run its callbacks.  A
    :class:`Process` whose generator raises triggers as *failed*: the
    exception is thrown into every process waiting for it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_fast_proc")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False
        self._fast_proc: Optional["Process"] = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires at a fixed simulated time.

    Created by :func:`pooled_timeout` / :func:`pooled_timeout_at`
    (``env.timeout``), never directly.
    """

    __slots__ = ()


def pooled_timeout_at(env: "Environment", when: float) -> "Timeout":
    """A :class:`Timeout` firing at *absolute* time ``when``.

    Reuses a recycled timeout record (including its empty callbacks
    list) from the environment's free list when one is available, and
    allocates a fresh one otherwise; either way the heap entry and its
    sequence number are the same.  ``pooled_timeout(env, when - now)``
    would re-derive the fire time as ``now + (when - now)``, which is
    not ``when`` under float rounding; schedulers that walk precomputed
    absolute timestamps (the block-generated arrival front-end) need
    the event to land on the exact float.  ``when`` must not lie in the
    past.
    """
    if when < env._now:
        raise ValueError(f"timeout_at({when!r}) lies in the past")
    pool = env._pool
    if pool:
        # _value None, _ok True, _defused False, _fast_proc None and
        # callbacks an empty list by the recycle invariant.
        self = pool.pop()
    else:
        self = Timeout.__new__(Timeout)
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self._fast_proc = None
    seq = env._seq
    env._seq = seq + 1
    heapq.heappush(env._queue, (when, NORMAL, seq, self))
    return self


def pooled_timeout(env: "Environment", delay: float) -> "Timeout":
    """A pooled :class:`Timeout` firing ``delay`` time units from now.

    Hot paths that schedule one timeout per event round trip bind this
    function once instead of going through ``env.timeout``.
    """
    if delay < 0:
        raise ValueError(f"negative delay {delay!r}")
    return pooled_timeout_at(env, env._now + delay)


class Initialize(Event):
    """Internal event that starts a freshly created process or handler."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._fast_proc = process
        env._schedule(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers (with the generator's
    return value) when the generator terminates, so other processes may
    ``yield`` it to wait for completion.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        send = generator.send
        while True:
            if event._ok:
                try:
                    target = send(event._value)
                except StopIteration as stop:
                    self._terminate(True, stop.value)
                    break
                except BaseException as exc:
                    self._terminate(False, exc)
                    break
            else:
                # Mark the failure as handled: it is being delivered.
                event._defused = True
                try:
                    target = generator.throw(event._value)
                except StopIteration as stop:
                    self._terminate(True, stop.value)
                    break
                except BaseException as exc:
                    self._terminate(False, exc)
                    break
            if type(target) is Timeout:
                callbacks = target.callbacks
                if callbacks is not None:
                    # Fused fast path: first waiter of a pending
                    # timeout rides the _fast_proc slot (resumed before
                    # any later callbacks, preserving FIFO order).
                    if target._fast_proc is None and not callbacks:
                        target._fast_proc = self
                    else:
                        callbacks.append(self._resume)
                    break
                event = target
                continue
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            callbacks = target.callbacks
            if callbacks is None:  # already processed
                event = target
                continue
            # Same fusion for every other event kind (resource grants,
            # process joins, ...): the dispatch loop resumes _fast_proc
            # before running callbacks, so first-waiter-in-the-slot is
            # ordering-identical to first-callback-in-the-list.
            if target._fast_proc is None and not callbacks:
                target._fast_proc = self
            else:
                callbacks.append(self._resume)
            break

    def _terminate(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self.env._schedule(self)


class Environment:
    """Event loop, simulation clock, and process factory."""

    __slots__ = ("_now", "_queue", "_seq", "_pool", "_pool_high")

    def __init__(self):
        self._now = 0.0
        self._queue: List = []  # (time, urgency, seq, event)
        self._seq = 0
        #: Free list of recycled Timeout records (see module docstring)
        #: and its high-water mark (an off-by-default telemetry gauge).
        self._pool: List[Timeout] = []
        self._pool_high = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def time(self) -> float:
        """Current simulation time, as a plain method.

        Equivalent to :attr:`now`; hot paths that need a ``clock``
        callable bind this method directly instead of wrapping the
        property in a lambda.
        """
        return self._now

    # -- factories -------------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return pooled_timeout(self, delay)

    @property
    def event_pool_size(self) -> int:
        """Recycled timeout records currently on the free list."""
        return len(self._pool)

    @property
    def event_pool_high_water(self) -> int:
        """Largest free-list size seen so far (pool growth gauge)."""
        return self._pool_high

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    # -- scheduling ------------------------------------------------

    def _schedule(self, event: Event) -> None:
        """Push a triggered event as URGENT at the current time."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now, URGENT, seq, event))

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-undispatched events."""
        return len(self._queue)

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        ``run()`` dispatches events until none remain (at a finite
        time) and leaves the clock at the last event's time.
        ``run(until=t)`` dispatches every event before ``t`` and then
        sets the clock to ``t``.
        """
        if until is None:
            stop_at = float("inf")
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError("until lies in the past")
        pool = self._pool
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] < stop_at:
            when, _, _, event = pop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            proc = event._fast_proc
            if proc is not None:
                event._fast_proc = None
                proc._resume(event)
                if not callbacks and type(event) is Timeout:
                    # Fused timeout, no other subscribers: recycle the
                    # record (and its still-empty callbacks list); a
                    # timeout is always _ok.
                    event.callbacks = callbacks
                    pool.append(event)
                    if len(pool) > self._pool_high:
                        self._pool_high = len(pool)
                    continue
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                # A failed event nobody waited for: surface the error
                # instead of silently dropping it.
                raise event._value
        if until is not None:
            self._now = stop_at
