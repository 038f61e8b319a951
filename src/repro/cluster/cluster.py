"""Whole-system assembly and the distributed page access path.

:class:`Cluster` wires together the simulation environment, the nodes
(CPU + disk + buffer manager), the shared network, the database home
mapping, the page-location directory, and the measured access costs.
Its access path implements data-shipping (§3): the requested page is
copied to the node where the operation was initiated, served from — in
order of preference — the local cache, a remote cache, or the home
node's disk.  Every access runs through one state machine,
:class:`_FetchChain`, which carries a whole run of pages: the workload
generator arms it directly for each operation, :meth:`Cluster.access_run`
yields it for a run and :meth:`Cluster.access_page` for a single page.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.bufmgr.costs import AccessLevel, CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry
from repro.bufmgr.manager import NodeBufferManager
from repro.cluster.config import SystemConfig
from repro.cluster.database import Database
from repro.cluster.directory import DirectoryInvariantError, PageDirectory
from repro.cluster.messages import MessageKind, message_size
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.sim.engine import NORMAL, Environment, Event
from repro.sim.resources import Request
from repro.sim.rng import RandomStreams

import heapq


class _FetchHop(Event):
    """Heap-resident hop event of a :class:`_FetchChain`.

    Its ``_fast_proc`` slot holds the chain, so the kernel's dispatch
    loop calls ``chain._resume(hop)`` — advancing the chain's state
    machine — instead of resuming a generator.
    """

    __slots__ = ()


class _FetchChain(Event):
    """A run of page accesses (§3, §6) as a self-advancing hold chain.

    :meth:`_run` arms the chain once for a whole run of same-node,
    same-class pages.  For each page the chain walks the access's hold
    sequence — the buffer-lookup CPU charge, then on a miss the fetch
    hops (request wire, remote CPU, ship wire, page handling; or the
    disk variants) — by re-pushing its single :class:`_FetchHop` event
    for each hold and performing the release / bookkeeping / acquire
    transitions inside :meth:`_resume`.  Buffer probe/admit, directory
    registration, cost observation, and telemetry all run inside the
    state machine.  When a page ends (a hit, or the admit after a
    fetch) the chain starts the next page inline, with the same
    dispatch and sequence number a fresh arming would take, so the
    owner in ``_fast_proc`` is resumed exactly once per *run*: a
    generator's :class:`~repro.sim.engine.Process` (:meth:`Cluster.access_run`
    and :meth:`Cluster.access_page` yield the chain, which is an
    :class:`Event`) or a handler object with a ``_resume(chain)``
    method (the open-system workload generator).

    Event-for-event parity with a generator loop of
    :meth:`~repro.sim.resources.Resource.occupy` holds is the invariant
    (the batch parity suite pins it against such a reference in
    ``tests/``): every hold pushes one heap entry with the same time and
    sequence number ``occupy`` would, uncontended grants consume no
    event, and contended holds fall back to a real
    :class:`~repro.sim.resources.Request` so FIFO order and wait
    accounting are untouched.  A :class:`~repro.sim.resources.Resource`
    is a single server (node CPUs, disk arms, the network medium), so
    the inline fast-grant condition is exactly ``occupy``'s: nobody
    holds it and nobody waits.

    A chain is bound to one node and recycled through that node's pool
    (:meth:`Cluster._chain`) when its run finishes, so its fault and
    telemetry bindings share the pool's invalidation.
    """

    __slots__ = (
        "_hop", "_hop_cb", "_own_cb", "_state", "_res", "_req",
        "_service", "_page", "_class", "_t0", "_node_id", "_cpu_res",
        "_lookup_ms", "_handling_ms", "_remote", "_home", "_home_local",
        "_disk_service", "_level", "_faults", "_nodes", "_net",
        "_bytes_by_kind", "_messages_by_kind", "_home_fn",
        "_remote_holder", "_probe", "_admit", "_contains", "_unreg",
        "_register", "_observe", "_on_access", "_req_wire", "_ship_wire",
        "_req_bytes", "_ship_bytes", "_remote_service",
        "_home_msg_service", "_disk_read_ms", "_page_request",
        "_page_ship", "_local_level", "_remote_level", "_disk_level",
        "_pages", "_index", "_start", "_pool",
    )

    def __init__(self, cluster: "Cluster", node_id: int, pool: list):
        env = cluster.env
        self.env = env
        self.callbacks = None  # armed by _run
        self._value = None
        self._ok = None
        self._defused = False
        self._fast_proc = None
        hop = _FetchHop.__new__(_FetchHop)
        hop.env = env
        hop.callbacks = None
        hop._value = None
        hop._ok = True
        hop._defused = False
        hop._fast_proc = None
        self._hop = hop
        self._hop_cb: list = []
        self._own_cb: list = []
        self._req = None
        self._res = None
        self._level = None
        self._pages = None
        self._pool = pool
        node = cluster.nodes[node_id]
        buffers = node.buffers
        directory = cluster.directory
        telemetry = cluster._telemetry
        self._node_id = node_id
        self._cpu_res = node.cpu.resource
        self._probe = buffers.probe
        self._admit = buffers.admit
        self._contains = buffers.contains
        self._unreg = directory.unregister_many
        self._register = directory.register
        self._remote_holder = directory.remote_holder
        self._observe = cluster.costs.observe
        self._on_access = (
            None if telemetry is None else telemetry.on_access
        )
        self._faults = cluster.faults
        self._nodes = cluster.nodes
        self._net = cluster.network.medium
        accounting = cluster.network.accounting
        self._bytes_by_kind = accounting.bytes_by_kind
        self._messages_by_kind = accounting.messages_by_kind
        self._home_fn = cluster.database.home
        self._req_wire = cluster._req_wire_ms
        self._ship_wire = cluster._ship_wire_ms
        self._req_bytes = cluster._req_bytes
        self._ship_bytes = cluster._ship_bytes
        # Per-hop CPU services; every node runs the same CPU (the
        # cluster is built from one SystemConfig), so the divisions by
        # _mips_ms fold into constants.
        mips_ms = node.cpu._mips_ms
        remote_instr = cluster._instr_message + cluster._instr_lookup
        self._lookup_ms = cluster._instr_lookup / mips_ms
        self._handling_ms = cluster._instr_page_handling / mips_ms
        self._remote_service = remote_instr / mips_ms
        self._home_msg_service = cluster._instr_message / mips_ms
        self._disk_read_ms = cluster._disk_read_ms
        self._page_request = MessageKind.PAGE_REQUEST
        self._page_ship = MessageKind.PAGE_SHIP
        self._local_level = AccessLevel.LOCAL
        self._remote_level = AccessLevel.REMOTE
        self._disk_level = AccessLevel.DISK

    def _run(self, pages, class_id: int) -> "_FetchChain":
        """Arm the chain for a non-empty run of ``pages``; returns self.

        The run starts now (``_start``, the operation's response-time
        origin).  The owner is resumed with the level of the run's last
        page as the chain's value.
        """
        self.callbacks = self._own_cb
        self._ok = None
        self._value = None
        self._level = None
        self._pages = pages
        self._index = 0
        self._class = class_id
        self._start = self.env._now
        self._next_page()
        return self

    def _next_page(self) -> None:
        """Start the run's next page, or finish the run after its last.

        A crashed origin node stalls the page until its restart delay
        has elapsed (state 10, a pure delay), the response time spike
        the feedback loop reacts to.  The page's elapsed time counts
        from before the stall.
        """
        index = self._index
        pages = self._pages
        if index == len(pages):
            self._finish()
            return
        self._index = index + 1
        self._page = pages[index]
        now = self.env._now
        self._t0 = now
        faults = self._faults
        if faults is not None:
            delay = faults.down_delay(self._node_id, now)
            if delay > 0.0:
                self._state = 10
                self._res = None  # pure delay: nothing to release
                self._hold(None, delay)
                return
        # First hold: the buffer-lookup CPU charge (state 0).
        self._state = 0
        self._hold(self._cpu_res, self._lookup_ms)

    # -- state machine ---------------------------------------------

    def _record(self, kind, nbytes: int) -> None:
        """Inline of TrafficAccounting.record on pre-bound dicts."""
        bk = self._bytes_by_kind
        mk = self._messages_by_kind
        try:
            bk[kind] += nbytes
            mk[kind] += 1
        except KeyError:
            bk[kind] = bk.get(kind, 0) + nbytes
            mk[kind] = mk.get(kind, 0) + 1

    def _resume(self, event: Event) -> None:
        # Called by the dispatch loop, either with our hop event (the
        # current hold's service interval expired) or with a granted
        # Request (our turn on a contended resource arrived).
        if event is self._req:
            self._hold(None, self._service)
            return
        env = self.env
        res = self._res
        if res is not None:
            req = self._req
            if req is None:
                # Inline release of an uncontended grant, mirroring
                # the tail of Resource.occupy's fast path.
                res.users.remove(res)
                if res._busy_since is not None:
                    res._busy_time += env._now - res._busy_since
                    res._busy_since = None
                if res._waiting:
                    res._grant_next()
            else:
                self._req = None
                res.release(req)
        state = self._state
        # Each branch either finishes the access (and returns) or
        # selects the next hold as (res, service, state) and falls
        # through to the shared acquire-and-push tail below.
        if state == 0:  # buffer lookup done: probe the local cache
            page = self._page
            class_id = self._class
            hit, dropped = self._probe(page, class_id)
            if dropped:
                self._unreg(dropped, self._node_id)
            if hit:
                # The previous page may have left another level.
                level = self._level = self._local_level
                elapsed = env._now - self._t0
                self._observe(level, elapsed)
                on_access = self._on_access
                if on_access is not None:
                    on_access(self._node_id, class_id, level, elapsed)
                self._next_page()
                return
            # Miss: try a remote cached copy, else the home disk.
            remote_id = self._remote_holder(page, self._node_id)
            if remote_id is not None:
                self._remote = self._nodes[remote_id]
                service = self._req_wire
                faults = self._faults
                if faults is not None and faults.extra_ms > 0.0:
                    service += faults.extra_ms
                res = self._net
                state = 1
            else:
                hold = self._start_disk()
                if hold is None:
                    return  # restart delay pushed as a pure-delay hop
                res, service, state = hold
        elif state == 1:  # request wire done (remote branch)
            self._record(self._page_request, self._req_bytes)
            res = self._remote.cpu.resource
            service = self._remote_service
            state = 2
        elif state == 2:  # remote CPU done: is the copy still there?
            if self._remote.buffers.contains(self._page):
                self._level = self._remote_level
                service = self._ship_wire
                faults = self._faults
                if faults is not None and faults.extra_ms > 0.0:
                    service += faults.extra_ms
                res = self._net
                state = 3
            else:
                # Evicted while our request was in flight.
                hold = self._start_disk()
                if hold is None:
                    return
                res, service, state = hold
        elif state == 3:  # ship wire done (remote branch)
            self._record(self._page_ship, self._ship_bytes)
            res = self._cpu_res
            service = self._handling_ms
            state = 4
        elif state == 4:  # page handling done: admit and account
            page = self._page
            class_id = self._class
            dropped = self._admit(page, class_id)
            if dropped:
                self._unreg(dropped, self._node_id)
            if self._contains(page):
                self._register(page, self._node_id)
            elapsed = env._now - self._t0
            level = self._level
            self._observe(level, elapsed)
            on_access = self._on_access
            if on_access is not None:
                on_access(self._node_id, class_id, level, elapsed)
            self._next_page()
            return
        elif state == 8:  # disk read done
            home_disk = self._home.disk
            home_disk.reads += 1
            home_disk.service_stats.add(self._disk_service)
            if self._home_local:
                res = self._cpu_res
                service = self._handling_ms
                state = 4
            else:
                service = self._ship_wire
                faults = self._faults
                if faults is not None and faults.extra_ms > 0.0:
                    service += faults.extra_ms
                res = self._net
                state = 9
        elif state == 9:  # ship wire done (disk branch)
            self._record(self._page_ship, self._ship_bytes)
            res = self._cpu_res
            service = self._handling_ms
            state = 4
        elif state == 6:  # request wire done (disk branch)
            self._record(self._page_request, self._req_bytes)
            res = self._home.cpu.resource
            service = self._home_msg_service
            state = 7
        elif state == 7:  # home CPU done
            res = self._home.disk.resource
            service = self._disk_service
            state = 8
        elif state == 5:  # home-node restart delay elapsed
            res, service, state = self._disk_go()
        else:  # state == 10: origin-node restart delay elapsed
            res = self._cpu_res
            service = self._lookup_ms
            state = 0

        self._state = state
        self._hold(res, service)

    def _hold(self, res, service: float) -> None:
        """Acquire ``res`` and schedule the hold's end ``service`` later.

        An idle resource is granted inline; a busy one gets a queued
        :class:`~repro.sim.resources.Request` whose grant re-enters
        :meth:`_resume`, which then calls ``_hold(None, service)``.
        ``res=None`` schedules a pure delay and leaves the current
        hold (if any) untouched.
        """
        env = self.env
        if res is not None:
            self._res = res
            if res._waiting or res.users:
                self._service = service
                req = Request(res)
                req._fast_proc = self
                self._req = req
                return
            if res._busy_since is None:
                res._busy_since = env._now
            res._grants += 1
            res.users.append(res)
        hop = self._hop
        hop.callbacks = self._hop_cb
        hop._fast_proc = self
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._queue, (env._now + service, NORMAL, seq, hop))

    def _start_disk(self):
        """Enter the disk path; returns the next hold or None when a
        restart delay was scheduled instead."""
        self._level = self._disk_level
        home_id = self._home_fn(self._page)
        home = self._nodes[home_id]
        self._home = home
        local = home_id == self._node_id
        self._home_local = local
        faults = self._faults
        if faults is not None and not local:
            # The home disk is unreachable while its node restarts.
            delay = faults.down_delay(home_id, self.env._now)
            if delay > 0.0:
                self._state = 5
                self._res = None  # pure delay: nothing to release
                self._hold(None, delay)
                return None
        return self._disk_go()

    def _disk_go(self):
        """Next hold of the disk path (read locally or request the
        home node), as a (resource, service, state) tuple."""
        home = self._home
        disk = home.disk
        service = self._disk_read_ms
        if disk.fault_factor != 1.0:
            service *= disk.fault_factor
        self._disk_service = service
        if self._home_local:
            return disk.resource, service, 8
        wire = self._req_wire
        faults = self._faults
        if faults is not None and faults.extra_ms > 0.0:
            wire += faults.extra_ms
        return self._net, wire, 6

    def _finish(self) -> None:
        # Resume the owner, exactly as the dispatch loop would for a
        # fired event (the chain never goes through _schedule, so no
        # extra event or sequence number), then return the chain to its
        # node's pool: the owner and callbacks may still read it.
        callbacks = self.callbacks
        self.callbacks = None
        self._ok = True
        self._value = self._level
        self._pages = None
        proc = self._fast_proc
        if proc is not None:
            self._fast_proc = None
            proc._resume(self)
        if callbacks:
            for callback in callbacks:
                callback(self)
            del callbacks[:]
        self._pool.append(self)


class Cluster:
    """A simulated network of workstations."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        policy: str = "cost",
    ):
        self.config = config if config is not None else SystemConfig()
        self.env = Environment()
        self.rng = RandomStreams(seed)
        self.network = Network(self.env, self.config.network)
        self.database = Database(
            self.config.num_pages,
            self.config.page_size,
            self.config.num_nodes,
        )
        self.directory = PageDirectory(
            self.network, capacity=self.config.num_pages
        )
        self.costs = CostObserver()
        self.global_heat = GlobalHeatRegistry(
            on_update=lambda: self.network.account_only(
                MessageKind.HEAT_UPDATE
            )
        )
        #: Per-node pools of idle :class:`_FetchChain` records (see
        #: :meth:`_chain`), emptied whenever the fault layer or
        #: telemetry pipeline changes (chains bind both).
        self._chain_pools: Dict[int, List[_FetchChain]] = {}
        #: Fault state (:class:`repro.faults.FaultLayer`) or None; the
        #: access path pays one attribute check while this is None.
        self.faults = None
        #: Telemetry pipeline (:class:`repro.telemetry.Telemetry`) or
        #: None — same off-by-default, one-attribute-check discipline.
        #: (A property: assigning it invalidates the run contexts.)
        self._telemetry = None
        #: Called as ``fn(node_id, now)`` after every node restart, so
        #: the feedback loop can invalidate state that predates the
        #: crash (see :meth:`restart_node`).
        self._restart_listeners: List[Callable[[int, float], None]] = []
        #: Anti-entropy sweeps run (see :meth:`reconcile_directory`)
        #: and directory entries they repaired.
        self.reconciles = 0
        self.reconcile_repairs = 0
        # Per-access CPU charges, pre-bound once: the access path reads
        # them on every page access, so the config attribute chain is
        # hoisted out of the hot loop.
        cpu = self.config.cpu
        self._instr_lookup = cpu.instructions_buffer_lookup
        self._instr_message = cpu.instructions_message
        self._instr_page_handling = cpu.instructions_page_handling
        # Wire sizes and times of the two data-path messages are config
        # constants; :meth:`access_run` charges them without going
        # through message_size()/transfer_ms() per miss.
        self._req_bytes = message_size(MessageKind.PAGE_REQUEST)
        self._ship_bytes = message_size(
            MessageKind.PAGE_SHIP, self.config.page_size
        )
        net = self.config.network
        self._req_wire_ms = net.transfer_ms(self._req_bytes)
        self._ship_wire_ms = net.transfer_ms(self._ship_bytes)
        self._disk_read_ms = self.config.disk.access_ms(
            self.config.page_size
        )
        self.nodes: List[Node] = [
            Node(i, self.env, self.config)
            for i in range(self.config.num_nodes)
        ]
        for node in self.nodes:
            node.buffers = NodeBufferManager(
                node_id=node.node_id,
                total_bytes=self.config.node.buffer_bytes,
                page_size=self.config.page_size,
                clock=self.env.time,
                global_heat=self.global_heat,
                costs=self.costs,
                is_last_copy=self.directory.is_last_copy,
                policy=policy,
            )

    @property
    def num_nodes(self) -> int:
        """Number of workstations in the cluster."""
        return self.config.num_nodes

    @property
    def telemetry(self):
        """The attached telemetry pipeline, or None (off by default)."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, pipeline) -> None:
        self._telemetry = pipeline
        self._chain_pools.clear()

    # -- fault plumbing -------------------------------------------------

    def attach_faults(self, layer) -> None:
        """Install a :class:`repro.faults.FaultLayer` on the hot paths."""
        self.faults = layer
        self.network.faults = layer
        self._chain_pools.clear()

    def add_restart_listener(
        self, listener: Callable[[int, float], None]
    ) -> None:
        """Register ``listener(node_id, now)`` for node restarts."""
        self._restart_listeners.append(listener)

    # -- page access path ---------------------------------------------

    def access_page(self, node_id: int, page_id: int, class_id: int):
        """Generator: one data-shipping page access.

        A one-page :meth:`access_run`; returns (via StopIteration value,
        i.e. ``yield from``) the :class:`AccessLevel` the page was
        served from.  The transaction manager reads and writes through
        here.
        """
        return (yield self._chain(node_id)._run((page_id,), class_id))

    def access_run(self, node_id: int, page_ids, class_id: int):
        """Generator: a run of same-node, same-class page accesses.

        ``page_ids`` is a sequence.  Returns the :class:`AccessLevel` of
        the run's last page (None for an empty run).  The whole run is
        one ``yield`` of a pooled :class:`_FetchChain`, which performs
        every page's lookup / probe / fetch / admit sequence as
        self-advancing events and resumes this generator once, when the
        last page is done.  A crashed origin node stalls each access
        until its restart delay has elapsed (the response time spike
        the loop reacts to).  The trace replayer feeds whole
        operations through here; the open-system generator arms the
        chain itself (:meth:`_chain`).
        """
        if not page_ids:
            return None
        return (yield self._chain(node_id)._run(page_ids, class_id))

    def _chain(self, node_id: int) -> _FetchChain:
        """An idle :class:`_FetchChain` bound to ``node_id``.

        Taken from the node's pool (a finished run returns its chain),
        or built when the pool is empty.
        """
        pool = self._chain_pools.get(node_id)
        if pool is None:
            pool = self._chain_pools[node_id] = []
        if pool:
            return pool.pop()
        return _FetchChain(self, node_id, pool)

    # -- allocation plumbing --------------------------------------------

    def apply_allocation(self, class_id: int, node_bytes: List[int]) -> List[int]:
        """Set class ``class_id``'s dedicated pool size on every node.

        ``node_bytes[i]`` is the requested size on node ``i``.  Returns
        the *granted* sizes, which may be smaller when another class
        holds the memory (phase (e) conflict rule).
        """
        if len(node_bytes) != self.num_nodes:
            raise ValueError("need one size per node")
        granted = []
        for node, nbytes in zip(self.nodes, node_bytes):
            got, dropped = node.buffers.set_dedicated_bytes(class_id, nbytes)
            self._unregister(node.node_id, dropped)
            granted.append(got)
        return granted

    def apply_node_allocation(
        self, class_id: int, node_id: int, nbytes: int
    ) -> int:
        """Set ``class_id``'s dedicated pool size on one node.

        The single-node variant of :meth:`apply_allocation`, used when
        a deferred ALLOCATION finally reaches a node after a partition
        heals.  Returns the granted size.
        """
        node = self.nodes[node_id]
        got, dropped = node.buffers.set_dedicated_bytes(class_id, nbytes)
        self._unregister(node_id, dropped)
        return got

    def dedicated_bytes(self, class_id: int) -> List[int]:
        """Current per-node dedicated pool sizes for ``class_id``."""
        return [
            node.buffers.dedicated_bytes(class_id) for node in self.nodes
        ]

    def total_dedicated_bytes(self, class_id: int) -> int:
        """System-wide dedicated memory of ``class_id`` in bytes."""
        return sum(self.dedicated_bytes(class_id))

    def restart_node(self, node_id: int) -> int:
        """Simulate a node restart: its cache content is lost.

        All cached pages are dropped (and unregistered from the
        directory), heat bookkeeping and the per-interval hit/miss
        counters reset, but the disk-resident pages and the allocation
        table survive.  Returns the number of pages dropped.  Restart
        listeners (the goal-oriented controller registers one) are
        notified afterwards so measure points and remembered reports
        that predate the crash can be invalidated.  Used by resilience
        experiments: the feedback loop must re-converge after the
        resulting response time spike.
        """
        node = self.nodes[node_id]
        dropped = node.buffers.clear()
        self._unregister(node_id, dropped)
        # The restarted node's hit/miss counters restart from zero;
        # without this, the pre-crash counts would survive and poison
        # the first post-restart hit-info deltas.
        node.buffers.reset_interval_counters()
        # Restart semantics: heat state is lost.  Pages whose only
        # cached copy lived on this node go fully cold cluster-wide, so
        # their global-heat bookkeeping is deleted on demand (§6).
        # Ordinary evictions deliberately do NOT forget: cluster-wide
        # heat is an access-frequency statistic that must survive a
        # transient eviction, or the last-copy benefit term would reset
        # to zero on every re-admission.
        directory = self.directory
        for page_id in dropped:
            if not directory.cached_anywhere(page_id):
                self.global_heat.forget(page_id)
        now = self.env.now
        for listener in self._restart_listeners:
            listener(node_id, now)
        return len(dropped)

    def _unregister(self, node_id: int, dropped: List[int]) -> None:
        if dropped:
            self.directory.unregister_many(dropped, node_id)

    # -- anti-entropy ---------------------------------------------------

    def pool_contents(self) -> Dict[int, Set[int]]:
        """Ground truth from the buffer pools: page id -> holder set."""
        actual: Dict[int, Set[int]] = {}
        for node in self.nodes:
            node_id = node.node_id
            for page_id in node.buffers.cached_pages():
                holders = actual.get(page_id)
                if holders is None:
                    actual[page_id] = {node_id}
                else:
                    holders.add(node_id)
        return actual

    def reconcile_directory(self, reason: str = "manual") -> int:
        """Anti-entropy sweep: repair the directory against the pools.

        Run after any crash or partition heal.  Every directory entry
        that disagrees with the actual buffer pool contents is
        rewritten (one DIRECTORY_UPDATE accounted per repair), then the
        invariant checker verifies the repaired state — a directory
        that still disagrees with the pools afterwards indicates a real
        bookkeeping bug and raises :class:`DirectoryInvariantError`.
        Returns the number of repaired entries.
        """
        actual = self.pool_contents()
        repaired = self.directory.reconcile(actual)
        problems = self.directory.audit(actual)
        if problems:
            head = "; ".join(problems[:5])
            raise DirectoryInvariantError(
                f"directory reconciliation ({reason}) left "
                f"{len(problems)} inconsistencies: {head}"
            )
        self.reconciles += 1
        self.reconcile_repairs += repaired
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "reconcile", self.env.now, reason=reason,
                repaired=repaired, pages_cached=len(actual),
            )
        return repaired
