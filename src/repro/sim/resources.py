"""Single-server FIFO resources for the simulation kernel.

A :class:`Resource` models one server with a FIFO request queue — e.g.
a disk arm, a CPU, or the shared network medium.  Processes acquire it
with::

    with resource.request() as req:
        yield req                      # wait for our turn
        yield env.timeout(service_ms)  # hold the resource

and release it automatically when the ``with`` block exits.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.sim.engine import URGENT, Environment, Event, pooled_timeout


class Request(Event):
    """A pending acquisition of a :class:`Resource`.

    Usable as a context manager; exiting the context releases the
    resource (or cancels the request if it never got the resource).
    """

    __slots__ = ("resource", "_enqueued_at")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)


class Resource:
    """One server with a FIFO wait queue.

    ``users`` holds at most one entry, so the resource is free exactly
    when nobody holds it and nobody waits.  Callers that grant inline
    (:meth:`occupy`'s fast path, the cluster's fetch chain) rely on
    that: ``not users and not _waiting`` is the whole grant condition.
    """

    __slots__ = (
        "env", "users", "_waiting", "_busy_since", "_busy_time",
        "_grants", "_wait_total", "_tel_wait",
    )

    def __init__(self, env: Environment):
        self.env = env
        self.users: List[Request] = []
        self._waiting: List[Request] = []
        # Utilization accounting.
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        self._grants = 0
        self._wait_total = 0.0
        #: Telemetry wait histogram, or None (off by default).  Only
        #: contended grants consult it — uncontended holds have zero
        #: queueing delay by construction — so disabled telemetry costs
        #: one attribute check per *queued* grant and nothing on the
        #: fast paths.
        self._tel_wait = None

    # -- public API ------------------------------------------------

    def request(self) -> Request:
        """Create a request; ``yield`` it to wait for the grant."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a granted request (or cancel a waiting one)."""
        if request in self.users:
            self.users.remove(request)
            if self._busy_since is not None:
                self._busy_time += self.env.now - self._busy_since
                self._busy_since = None
            self._grant_next()
        else:
            self._cancel(request)

    def utilization(self) -> float:
        """Fraction of time the server was busy."""
        now = self.env.now
        if now <= 0:
            return 0.0
        busy = self._busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy / now

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay over all grants so far."""
        return self._wait_total / self._grants if self._grants else 0.0

    def occupy(self, service: float):
        """Generator: acquire the server, hold it ``service``, release it.

        Semantically identical to::

            with self.request() as req:
                yield req
                yield env.timeout(service)

        but when the resource is idle the whole Request/grant-event
        round trip is skipped: the holder is marked busy inline (the
        resource object itself serves as the hold token in ``users``)
        and only the service timeout is scheduled — one event instead
        of two.  Contended acquisitions fall back to the queued path
        unchanged, so FIFO ordering and wait accounting are preserved.
        """
        users = self.users
        if not self._waiting and not users:
            env = self.env
            if self._busy_since is None:
                self._busy_since = env._now
            self._grants += 1
            users.append(self)
            try:
                yield pooled_timeout(env, service)
            finally:
                users.remove(self)
                if self._busy_since is not None:
                    self._busy_time += env._now - self._busy_since
                    self._busy_since = None
                if self._waiting:
                    self._grant_next()
        else:
            with self.request() as req:
                yield req
                yield pooled_timeout(self.env, service)

    # -- internals -------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        env = self.env
        users = self.users
        if not self._waiting and not users:
            # Uncontended fast path: grant synchronously, with the grant
            # event pushed exactly as ``request.succeed(0.0)`` would —
            # same heap tuple, same sequence number, so contention and
            # ordering behave identically to the queued path.
            now = env._now
            request._enqueued_at = now
            users.append(request)
            if self._busy_since is None:
                self._busy_since = now
            self._grants += 1
            request._ok = True
            request._value = 0.0
            seq = env._seq
            env._seq = seq + 1
            heapq.heappush(env._queue, (now, URGENT, seq, request))
            return
        request._enqueued_at = env._now
        self._waiting.append(request)
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        waiting = self._waiting
        if not waiting or self.users:
            return
        request = waiting.pop(0)
        self.users.append(request)
        now = self.env._now
        if self._busy_since is None:
            self._busy_since = now
        waited = now - request._enqueued_at
        self._grants += 1
        self._wait_total += waited
        hist = self._tel_wait
        if hist is not None:
            hist.add(waited)
        request.succeed(waited)
