"""Reproducible named random streams.

Every stochastic component of a simulation (one arrival process per
node per class, page selection, goal randomization, ...) draws from its
own named stream so that changing one component's consumption pattern
does not perturb the others.  All streams derive deterministically from
a single experiment seed.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RandomStreams:
    """Factory of independent, reproducibly seeded random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            derived = zlib.crc32(name.encode("utf-8")) ^ (self.seed * 0x9E3779B9)
            stream = random.Random(derived & 0xFFFFFFFFFFFFFFFF)
            self._streams[name] = stream
        return stream

    # -- convenience draws -----------------------------------------

    def exponential(self, name: str, mean: float) -> float:
        """Draw from Exp with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self.stream(name).expovariate(1.0 / mean)

    def random(self, name: str) -> float:
        """Draw uniformly from [0, 1)."""
        return self.stream(name).random()
