"""Replacement policies for the set-associative cache.

A policy manages victim choice only; tag lookup and bookkeeping stay in the
cache, whose state is a set-major ``(num_sets, ways)`` tag matrix. Per-set
policy state is indexed by physical way.

:class:`LRUPolicy` holds the recency state of every LRU cache: one stamp per
line, with 0 marking an empty line. The cache's vectorised batch path reads
and writes :attr:`LRUPolicy.stamps` directly, one round of distinct sets at a
time; :meth:`~LRUPolicy.on_access` and :meth:`~LRUPolicy.victim` are the
same rules for one reference. Random and tree-PLRU serve the cache's
per-reference path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng
from repro.utils.validation import require_positive

__all__ = ["ReplacementPolicy", "LRUPolicy", "RandomPolicy", "TreePLRUPolicy", "make_policy"]


class ReplacementPolicy:
    """Per-cache replacement-policy state machine."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = require_positive(num_sets, "num_sets")
        self.ways = require_positive(ways, "ways")

    def on_access(self, set_index: int, way: int) -> None:
        """Update state after a hit or a fill touching (set, way)."""
        raise NotImplementedError

    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all recency state."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True LRU via per-line recency stamps.

    ``stamps[set, way]`` is the :attr:`clock` value of the line's last
    access. Empty lines keep stamp 0, below every valid stamp, so the first
    minimum of a row is the lowest empty way, or the least recently used
    line of a full set.
    """

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self.stamps = np.zeros((num_sets, ways), dtype=np.int64)
        self.clock = 0

    def on_access(self, set_index: int, way: int) -> None:
        self.clock += 1
        self.stamps[set_index, way] = self.clock

    def victim(self, set_index: int) -> int:
        return int(np.argmin(self.stamps[set_index]))

    def reset(self) -> None:
        self.stamps.fill(0)
        self.clock = 0


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    def __init__(self, num_sets: int, ways: int, seed: Optional[int] = 0):
        super().__init__(num_sets, ways)
        self._seed = seed
        self._rng = make_rng(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass  # stateless

    def victim(self, set_index: int) -> int:
        return int(self._rng.integers(0, self.ways))

    def reset(self) -> None:
        self._rng = make_rng(self._seed)


class TreePLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the common hardware approximation).

    Each set keeps ``ways - 1`` tree bits; an access flips the bits along
    its root-to-leaf path to point *away* from the touched way, and the
    victim is found by following the bits from the root. Requires a
    power-of-two way count.
    """

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        if ways & (ways - 1):
            raise ConfigurationError("tree-PLRU requires power-of-two ways")
        self._levels = ways.bit_length() - 1
        self._bits = np.zeros((num_sets, max(ways - 1, 1)), dtype=np.int8)

    def on_access(self, set_index: int, way: int) -> None:
        if self.ways == 1:
            return
        node = 0
        for level in range(self._levels):
            # Bit index of 'way' at this tree level, MSB first.
            bit = (way >> (self._levels - 1 - level)) & 1
            self._bits[set_index, node] = 1 - bit  # point away
            node = 2 * node + 1 + bit

    def victim(self, set_index: int) -> int:
        if self.ways == 1:
            return 0
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = int(self._bits[set_index, node])
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def reset(self) -> None:
        self._bits.fill(0)


def make_policy(
    kind: str, num_sets: int, ways: int, seed: Optional[int] = 0
) -> ReplacementPolicy:
    """Construct a replacement policy by name ('lru', 'random', 'plru')."""
    if kind == "lru":
        return LRUPolicy(num_sets, ways)
    if kind == "random":
        return RandomPolicy(num_sets, ways, seed=seed)
    if kind == "plru":
        return TreePLRUPolicy(num_sets, ways)
    raise ConfigurationError(f"unknown replacement policy {kind!r}")
