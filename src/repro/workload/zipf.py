"""Zipfian page selection (§7.1).

The paper draws page identities from a Zipfian distribution with skew
parameter theta: the access frequency of the page with rank ``p``
(1-based) is proportional to ``1 / p**theta``.  ``theta = 0`` is the
uniform distribution; ``theta = 1`` is classic Zipf ("very highly
skewed" in the paper's words).

Sampling uses Walker's alias method: after an O(n) table build, every
draw costs O(1) and consumes exactly **one** uniform variate from the
caller's RNG stream, so the named-stream determinism of
:class:`~repro.sim.rng.RandomStreams` is preserved (a fixed stream
always yields the same rank sequence).

The tables are built in lists and kept as unboxed
``array('d')``/``array('l')`` columns: 16 bytes per item instead of a
list of float objects and a list of int objects.  The conversion is
exact, so every entry, and therefore every sampled rank, is the same
as in the list tables (the list oracle in
``tests/workload_reference.py``).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

#: Memoized ``(accept, alias)`` tables keyed by ``(num_items, theta)``.
#: Goal sweeps clone ClassSpecs per sweep point, and every clone used
#: to pay the O(n) Vose rebuild even though the distribution — which
#: depends only on the item count and skew — was unchanged.  The tables
#: are immutable once built, so sharing them across samplers (and
#: across replicas of the same workload) is safe.
_ALIAS_CACHE: Dict[Tuple[int, float], Tuple[array, array]] = {}


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^theta."""

    def __init__(self, num_items: int, theta: float):
        if num_items < 1:
            raise ValueError("need at least one item")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.num_items = num_items
        self.theta = theta
        cached = _ALIAS_CACHE.get((num_items, theta))
        if cached is None:
            weights = [
                rank ** (-theta) for rank in range(1, num_items + 1)
            ]
            cached = self._build_alias(weights, sum(weights))
            _ALIAS_CACHE[(num_items, theta)] = cached
        self._accept, self._alias = cached

    @staticmethod
    def _build_alias(weights: List[float], total: float):
        """Vose's stable construction of the alias table."""
        n = len(weights)
        accept = [0.0] * n
        alias = list(range(n))
        # Scale so the average weight is exactly 1.
        scaled = [w * n / total for w in weights]
        small = [i for i, w in enumerate(scaled) if w < 1.0]
        large = [i for i, w in enumerate(scaled) if w >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            accept[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # Leftovers are exactly 1 up to float rounding.
        for i in large:
            accept[i] = 1.0
        for i in small:
            accept[i] = 1.0
        return array("d", accept), array("l", alias)

    def sample_from_uniform(self, u: float) -> int:
        """Map one uniform variate in [0, 1) to a rank.

        O(1).  The block-drawing arrival front-end pre-draws uniforms
        in stream order and transforms them here, so a block-drawn rank
        sequence equals a sequential draw (one variate, one alias
        lookup) variate for variate.
        """
        scaled = u * self.num_items
        column = int(scaled)
        if scaled - column < self._accept[column]:
            return column
        return self._alias[column]


class ZipfPagePicker:
    """Maps Zipf ranks onto an explicit, ordered page set.

    Keeps the sequence it is given (a ``range`` for the contiguous
    partitions of :func:`~repro.workload.spec.partition_pages`), so a
    picker adds no per-page object.
    """

    def __init__(self, pages: Sequence[int], theta: float):
        self.pages = pages
        self.sampler = ZipfSampler(len(pages), theta)
