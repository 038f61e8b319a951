"""Buffer management: pools, replacement policies, heat, and the
per-node multi-pool manager implementing the §6 access protocol."""

from repro.bufmgr.base import BufferPool
from repro.bufmgr.costbased import BenefitModel, CostBasedPool
from repro.bufmgr.costs import AccessLevel, CostObserver
from repro.bufmgr.heat import GlobalHeatRegistry, HeatTracker
from repro.bufmgr.lru import LruPool
from repro.bufmgr.lruk import LrukPool
from repro.bufmgr.manager import NO_GOAL_CLASS, NodeBufferManager

__all__ = [
    "AccessLevel",
    "BenefitModel",
    "BufferPool",
    "CostBasedPool",
    "CostObserver",
    "GlobalHeatRegistry",
    "HeatTracker",
    "LruPool",
    "LrukPool",
    "NO_GOAL_CLASS",
    "NodeBufferManager",
]
