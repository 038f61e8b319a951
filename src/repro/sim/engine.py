"""Core event loop of the discrete-event simulation kernel.

The design follows the classic process-interaction style: simulation
logic lives in Python generators.  A generator yields :class:`Event`
instances; the :class:`Environment` resumes the generator when the
yielded event is *triggered*.  Triggering an event schedules its
callbacks at the current simulation time; the event heap orders
callbacks by ``(time, priority, sequence)`` so that the simulation is
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
- :class:`Timeout` construction writes its slots and pushes onto the
  heap inline instead of chaining ``Event.__init__`` → ``_schedule``;
- :meth:`Environment.run` hoists the ``stop_at`` / ``stop_event``
  branches out of the per-event loop into three specialized loops with
  locally bound queue/heappop references;
- a *timeout free list*: a fused timeout whose only waiter was resumed
  through ``_fast_proc`` is provably unreachable by simulation code
  once its dispatch returns, so the dispatch loops recycle it into
  ``Environment._pool`` (callbacks list and all) and
  :func:`pooled_timeout` / :func:`pooled_timeout_at` re-arm pooled
  records instead of allocating — the dominant allocation on the page
  access path at large node counts.  Timeouts with extra callbacks, or
  with no fused waiter (e.g. an event passed to ``run(until=...)``),
  are never pooled, so late reads of ``.value``/``.processed`` on a
  retained reference keep working.

Handlers
--------
The ``_fast_proc`` slot is a protocol, not a type: the dispatch loops
call ``event._fast_proc._resume(event)`` on whatever object sits there,
before the event's callbacks, and clear the slot first.  A
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
The pending-event set is a single binary heap of ``(time, priority,
seq, event)`` tuples; ``seq`` is unique, so the pop order is total and
deterministic.  Every push site is one ``heapq.heappush``.  Measured
peaks stay below a thousand pending events (``docs/simulation.md``
lists them), where the C heap's constant factors are hard to beat.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Scheduling priorities.  URGENT callbacks (event chain plumbing) run
#: before NORMAL callbacks scheduled for the same simulation time.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for illegal kernel operations (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted by another one.

    The interrupting cause is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence that processes can wait for.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called (which schedules it on the event queue),
    and is *processed* once the environment has run its callbacks.
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

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not failed)."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, URGENT)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting for the
        event.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, URGENT)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run the callback immediately so that
            # late waiters do not deadlock.
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined Event.__init__ + Environment._schedule: a timeout is
        # created per kernel round trip, so the chained calls matter.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._fast_proc = None
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._queue, (env._now + delay, NORMAL, seq, self))


def pooled_timeout(env: "Environment", delay: float,
                   value: Any = None) -> "Timeout":
    """A :class:`Timeout` from the environment's free list.

    Identical to ``Timeout(env, delay, value)`` — same heap tuple, same
    sequence number, same observable state — but reuses a recycled
    timeout record (including its empty callbacks list) when one is
    available.  Hot paths that schedule one timeout per event round
    trip bind this function once and skip the allocator entirely.
    """
    pool = env._pool
    if not pool:
        return Timeout(env, delay, value)
    if delay < 0:
        raise ValueError(f"negative delay {delay!r}")
    self = pool.pop()
    # _ok is True, _defused False, _fast_proc None and callbacks an
    # empty list by the recycle invariant; only value/delay change.
    self._value = value
    self.delay = delay
    seq = env._seq
    env._seq = seq + 1
    heapq.heappush(env._queue, (env._now + delay, NORMAL, seq, self))
    return self


def pooled_timeout_at(env: "Environment", when: float,
                      value: Any = None) -> "Timeout":
    """A pooled :class:`Timeout` firing at *absolute* time ``when``.

    ``Timeout(env, when - env.now)`` re-derives the absolute fire time
    as ``now + (when - now)``, which is not ``when`` under float
    rounding; schedulers that walk precomputed absolute timestamps (the
    block-generated arrival front-end) need the event to land on the
    exact float.  ``when`` must not lie in the past.
    """
    if when < env._now:
        raise ValueError(f"timeout_at({when!r}) lies in the past")
    pool = env._pool
    if pool:
        self = pool.pop()
        self._value = value
    else:
        self = Timeout.__new__(Timeout)
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._fast_proc = None
    self.delay = when - env._now
    seq = env._seq
    env._seq = seq + 1
    heapq.heappush(env._queue, (when, NORMAL, seq, self))
    return self


class Initialize(Event):
    """Internal event that starts a freshly created process or handler."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._fast_proc = process
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers (with the generator's
    return value) when the generator terminates, so other processes may
    ``yield`` it to wait for completion.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True  # never counts as an unhandled failure
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT)
        # Unsubscribe from the event the process was waiting on: it will
        # be resumed by the interrupt instead.
        target = self._target
        if target is not None:
            if target._fast_proc is self:
                target._fast_proc = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
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
                    self._target = target
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
            # process joins, ...): the dispatch loops resume _fast_proc
            # before running callbacks, so first-waiter-in-the-slot is
            # ordering-identical to first-callback-in-the-list.
            if target._fast_proc is None and not callbacks:
                target._fast_proc = self
            else:
                callbacks.append(self._resume)
            self._target = target
            break
        env._active_process = None

    def _terminate(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        self.env._schedule(self, URGENT)


class _MultiEvent(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`.

    The value is a dict mapping the index of each *fired* child event
    to its value, collected at the moment the combinator triggers.
    """

    __slots__ = ("_events", "_results", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._results: dict = {}
        self._done = 0
        for event in self._events:
            if not isinstance(event, Event):
                raise TypeError(f"{event!r} is not an Event")
        if not self._events:
            self._ok = True
            self._value = {}
            env._schedule(self, URGENT)
            return
        for index, event in enumerate(self._events):
            event._add_callback(
                lambda fired, index=index: self._on_child(index, fired)
            )

    def _on_child(self, index: int, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._results[index] = event._value
        self._done += 1
        if self._check(self._done, len(self._events)):
            self.succeed(dict(self._results))

    def _check(self, done: int, total: int) -> bool:
        raise NotImplementedError


class AnyOf(_MultiEvent):
    """Fires when any of the given events has fired."""

    __slots__ = ()

    def _check(self, done: int, total: int) -> bool:
        return done > 0


class AllOf(_MultiEvent):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _check(self, done: int, total: int) -> bool:
        return done == total


class Environment:
    """Event loop, simulation clock, and process factory."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process",
                 "_pool", "_pool_high")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []  # (time, priority, seq, event)
        self._seq = 0
        self._active_process: Optional[Process] = None
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

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return pooled_timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing at absolute time ``when``.

        Unlike ``timeout(when - now)`` the event lands on the exact
        float ``when`` (no ``now + delta`` re-rounding).
        """
        return pooled_timeout_at(self, when, value)

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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-undispatched events."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        when, _, _, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        proc = event._fast_proc
        if proc is not None:
            event._fast_proc = None
            proc._resume(event)
            if not callbacks and type(event) is Timeout:
                # Fused timeout, no other subscribers: recycle the
                # record (and its still-empty callbacks list).
                event.callbacks = callbacks
                pool = self._pool
                pool.append(event)
                if len(pool) > self._pool_high:
                    self._pool_high = len(pool)
                return  # a timeout is always _ok
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited for: surface the error
            # instead of silently dropping it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulation time), or an :class:`Event` (run until
        it is processed, returning its value).
        """
        if until is None:
            self._run_exhaust()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        stop_at = float(until)
        if stop_at < self._now:
            raise ValueError("until lies in the past")
        self._run_until_time(stop_at)
        return None

    # The loops below are step() inlined with the stop condition
    # hoisted out of the per-event dispatch (one branch per event
    # instead of three), with the queue and heappop locally bound.

    def _run_exhaust(self) -> None:
        pool = self._pool
        queue = self._queue
        pop = heapq.heappop
        while queue:
            when, _, _, event = pop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            proc = event._fast_proc
            if proc is not None:
                event._fast_proc = None
                proc._resume(event)
                if not callbacks and type(event) is Timeout:
                    event.callbacks = callbacks
                    pool.append(event)
                    if len(pool) > self._pool_high:
                        self._pool_high = len(pool)
                    continue
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value

    def _run_until_time(self, stop_at: float) -> None:
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
                    event.callbacks = callbacks
                    pool.append(event)
                    if len(pool) > self._pool_high:
                        self._pool_high = len(pool)
                    continue
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
        self._now = stop_at

    def _run_until_event(self, stop_event: Event) -> Any:
        queue = self._queue
        while stop_event.callbacks is not None and queue:
            self.step()
        if stop_event.callbacks is not None:
            raise SimulationError(
                "simulation ended before the awaited event fired"
            )
        if not stop_event._ok:
            raise stop_event._value
        return stop_event._value
