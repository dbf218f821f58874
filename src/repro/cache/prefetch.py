"""Sequential (next-N-line) prefetching on top of a cache.

The paper's related work (Liu et al., Zhuravlev et al. — Section 6) points
out that co-runners also contend through *prefetch hardware*; the paper's
own evaluation leaves prefetchers out. This wrapper adds the classic
next-line prefetcher so that interaction can be studied: on a demand miss,
the next ``degree`` sequential blocks are fetched into the cache (tagged as
prefetches in the statistics), amplifying a streaming workload's effective
fill rate exactly the way hardware prefetching amplifies its pollution.

The wrapper preserves the :class:`~repro.cache.cache.SetAssociativeCache`
event interface (fills/evictions with slots), so the signature unit can
observe a prefetching cache unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.utils.validation import require_positive

__all__ = ["PrefetchStats", "PrefetchingCache"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class PrefetchStats:
    """Prefetcher effectiveness accounting."""

    issued: int = 0
    useless: int = 0  # prefetched block was already resident

    @property
    def useful_issue_rate(self) -> float:
        """Fraction of issued prefetches that brought in a new line."""
        return (self.issued - self.useless) / self.issued if self.issued else 0.0


class PrefetchingCache:
    """Next-N-line prefetcher wrapped around a set-associative cache.

    Parameters
    ----------
    inner:
        The cache receiving demand and prefetch traffic.
    degree:
        Sequential blocks prefetched per demand miss.
    """

    def __init__(self, inner: SetAssociativeCache, degree: int = 1):
        self.inner = inner
        self.degree = require_positive(degree, "degree")
        self.prefetch_stats = PrefetchStats()

    @property
    def num_cores(self) -> int:
        """Requester count of the wrapped cache."""
        return self.inner.num_cores

    @property
    def stats(self):
        """Demand-access statistics of the wrapped cache (prefetch fills
        are folded into the same counters, as real L2 counters would)."""
        return self.inner.stats

    def access_batch(self, core: int, blocks: np.ndarray) -> AccessResult:
        """Demand accesses plus the prefetches their misses trigger.

        Returns one merged :class:`AccessResult`: hits/misses count the
        *demand* stream only; the fill/eviction event arrays include
        prefetch-induced traffic (the signature hardware sees real fills,
        whatever triggered them).
        """
        demand = self.inner.access_batch(core, blocks)
        if demand.misses == 0:
            return demand
        candidates = np.unique(
            np.concatenate(
                [demand.fills + d for d in range(1, self.degree + 1)]
            )
        )
        fresh = candidates[
            ~np.fromiter(
                (self.inner.contains(int(b)) for b in candidates),
                dtype=bool,
                count=len(candidates),
            )
        ]
        self.prefetch_stats.issued += len(candidates)
        self.prefetch_stats.useless += len(candidates) - len(fresh)
        if len(fresh) == 0:
            return demand
        prefetch = self.inner.access_batch(core, fresh)
        # Remove the prefetch lookups from the demand hit/miss accounting.
        self.inner.stats.hits[core] -= prefetch.hits
        self.inner.stats.misses[core] -= prefetch.misses
        return AccessResult(
            hits=demand.hits,
            misses=demand.misses,
            fills=np.concatenate([demand.fills, prefetch.fills]),
            fill_slots=np.concatenate([demand.fill_slots, prefetch.fill_slots]),
            evictions=np.concatenate([demand.evictions, prefetch.evictions]),
            evict_slots=np.concatenate([demand.evict_slots, prefetch.evict_slots]),
        )

    def contains(self, block: int) -> bool:
        """Delegate residency queries to the wrapped cache."""
        return self.inner.contains(block)

    def footprint_lines(self) -> int:
        """Delegate footprint queries to the wrapped cache."""
        return self.inner.footprint_lines()

    def reset(self) -> None:
        """Reset the wrapped cache and prefetch statistics."""
        self.inner.reset()
        self.prefetch_stats = PrefetchStats()
