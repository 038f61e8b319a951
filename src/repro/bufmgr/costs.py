"""Storage-hierarchy levels and measured access costs.

The NOW has a three-level storage hierarchy (§1): local cache, remote
cache, and disk.  The cost-based replacement needs the access cost of
each level; per §6 these are *measured*, by tagging each page request
with the level it was served from and observing the response times of
finished requests.
"""

from __future__ import annotations

from enum import Enum

from repro.sim.stats import OnlineStats


class AccessLevel(Enum):
    """Where a page request was satisfied."""

    # Identity hash (consistent with enum identity equality) keeps
    # level-keyed dict probes off ``Enum.__hash__``, a Python-level
    # call on an access-path-adjacent lookup.
    __hash__ = object.__hash__

    LOCAL = "local"    # hit in a buffer of the requesting node
    REMOTE = "remote"  # shipped from another node's cache
    DISK = "disk"      # read from the home node's disk


#: Cost ordering the paper's analysis depends on.
LEVEL_ORDER = (AccessLevel.LOCAL, AccessLevel.REMOTE, AccessLevel.DISK)


class CostObserver:
    """Online mean access cost per storage level.

    Starts from physically motivated defaults so benefit computations
    are sane before the first measurements arrive, then converges to
    the observed means.

    ``observe`` runs once per finished page access and the current
    means are read on every benefit pricing, so the three levels live
    in plain slots (``cost_local`` / ``cost_remote`` / ``cost_disk``)
    selected by identity checks — no enum-keyed dict lookups (and no
    enum ``__hash__`` calls) on the hot path.
    """

    __slots__ = ("_local", "_remote", "_disk",
                 "cost_local", "cost_remote", "cost_disk")

    #: Initial estimates in milliseconds (local ~ CPU only, remote ~
    #: one round trip + page wire time, disk ~ seek + rotation +
    #: transfer).  Refined by measurements immediately.
    DEFAULTS = {
        AccessLevel.LOCAL: 0.05,
        AccessLevel.REMOTE: 0.6,
        AccessLevel.DISK: 12.5,
    }

    def __init__(self):
        self._local = OnlineStats()
        self._remote = OnlineStats()
        self._disk = OnlineStats()
        #: Current mean estimate per level (default until measured).
        self.cost_local = self.DEFAULTS[AccessLevel.LOCAL]
        self.cost_remote = self.DEFAULTS[AccessLevel.REMOTE]
        self.cost_disk = self.DEFAULTS[AccessLevel.DISK]

    def _stats_for(self, level: AccessLevel) -> OnlineStats:
        if level is AccessLevel.LOCAL:
            return self._local
        if level is AccessLevel.REMOTE:
            return self._remote
        if level is AccessLevel.DISK:
            return self._disk
        raise KeyError(level)

    def observe(self, level: AccessLevel, elapsed_ms: float) -> None:
        """Fold one finished request's elapsed time into the estimate."""
        if elapsed_ms < 0:
            raise ValueError("elapsed time must be non-negative")
        if level is AccessLevel.LOCAL:
            stats = self._local
            stats.add(elapsed_ms)
            self.cost_local = stats._mean
        elif level is AccessLevel.REMOTE:
            stats = self._remote
            stats.add(elapsed_ms)
            self.cost_remote = stats._mean
        elif level is AccessLevel.DISK:
            stats = self._disk
            stats.add(elapsed_ms)
            self.cost_disk = stats._mean
        else:
            raise KeyError(level)

    def cost(self, level: AccessLevel) -> float:
        """Current mean cost estimate for ``level`` in milliseconds."""
        if level is AccessLevel.LOCAL:
            return self.cost_local
        if level is AccessLevel.REMOTE:
            return self.cost_remote
        if level is AccessLevel.DISK:
            return self.cost_disk
        raise KeyError(level)

    def observations(self, level: AccessLevel) -> int:
        """How many measurements back the estimate for ``level``."""
        return self._stats_for(level).count
