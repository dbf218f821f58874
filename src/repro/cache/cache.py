"""Trace-driven set-associative cache with fill/eviction event reporting.

This is the substrate the Bloom-filter signature unit instruments: every L2
miss produces a *fill* event attributed to the requesting core, every
replacement produces an *eviction* event, and both carry the physical slot
``set*ways + way`` so presence-bit indexing (Section 5.3) works too.

Performance notes (this is the simulation hot loop):

* All state is set-major: ``(num_sets, ways)`` int64 matrices of tags
  (-1 marks an invalid line), of the core that filled each line and of
  the LRU recency stamps. Every query is one numpy expression over those
  matrices.
* Replacement is true LRU. A line's stamp is the clock value of its last
  access; empty lines keep stamp 0, below every valid stamp, so the first
  minimum of a row is the lowest empty way, else the least recently used
  line of a full set.
* :meth:`access_batch` runs the compiled ``lru_batch`` kernel
  (:mod:`repro.native`) when the process has it: one C loop over the
  batch, reference by reference, over the same arrays (the cache takes
  its pointers to them once, at construction; nothing reassigns them and
  :meth:`~SetAssociativeCache.reset` fills them in place). It writes the
  four event arrays into one fresh ``(4, n)`` buffer, and rejects a batch
  holding a negative block before any state moves.
* Without the kernel, the numpy reference path runs the batch in
  *rounds*: round *r* holds each set's *r*-th reference of the batch, so
  the sets of one round are distinct and the round is one vectorised step
  (gather the set rows, find each hit way or victim with one ``argmin``,
  write tags and stamps). A batch whose references all fall in distinct
  sets is a single round. Stamps are the references' positions on a
  global clock, so rounds reproduce strictly sequential LRU exactly; the
  event arrays are reassembled in access order and the filled lines'
  owners written once per batch. Both paths give byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import native
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one access batch.

    Attributes
    ----------
    hits, misses:
        Counts for this batch.
    fills, fill_slots:
        Block addresses inserted by misses and their physical slots
        (``set*ways + way``), in access order.
    evictions, evict_slots:
        Replaced block addresses and their slots, in eviction order (each
        made room for the fill in the same slot).
    """

    hits: int
    misses: int
    fills: np.ndarray
    fill_slots: np.ndarray
    evictions: np.ndarray
    evict_slots: np.ndarray

    @property
    def accesses(self) -> int:
        """Total accesses in the batch."""
        return self.hits + self.misses


class SetAssociativeCache:
    """A set-associative cache shared by ``num_cores`` requesters.

    Parameters
    ----------
    config:
        Name and geometry.
    num_cores:
        Number of distinct requesters (for stats and fill attribution).
    """

    def __init__(self, config: CacheConfig, num_cores: int = 1):
        self.config = config
        self.geometry = config.geometry
        self.num_cores = require_positive(num_cores, "num_cores")
        g = self.geometry
        self.num_sets = g.num_sets
        self.ways = g.ways
        self._set_mask = self.num_sets - 1
        # Set-major line state: tag (-1 = invalid), last filling core and
        # LRU stamp (0 = empty line) on the clock of the last access.
        self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._tag_owner = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._stamps = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._clock = 0
        # Slot-indexed (set*ways + way) views of the same memory.
        self._slot_tags = self._tags.reshape(-1)
        self._slot_owner = self._tag_owner.reshape(-1)
        self._slot_stamps = self._stamps.reshape(-1)
        self.stats = CacheStats(num_cores=self.num_cores)
        kernels = native.load()
        self._lru_batch = None
        if kernels is not None:
            ffi = self._ffi = kernels.ffi
            self._lru_batch = kernels.lib.lru_batch
            self._lru_state = (
                ffi.from_buffer("int64_t[]", self._slot_tags),
                ffi.from_buffer("int64_t[]", self._slot_stamps),
                ffi.from_buffer("int64_t[]", self._slot_owner),
                self._set_mask,
                self.ways,
            )
            self._lru_counts = ffi.new("int64_t[2]")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, block: int) -> bool:
        """True iff *block* currently resides in the cache."""
        if block < 0:
            return False
        return bool((self._tags[block & self._set_mask] == block).any())

    def occupancy_by_core(self) -> np.ndarray:
        """Number of resident lines last filled by each core."""
        owners = self._tag_owner[self._tags >= 0]
        return np.bincount(owners, minlength=self.num_cores).astype(np.int64)

    def resident_blocks(self) -> np.ndarray:
        """All resident block addresses (unordered)."""
        return self._tags[self._tags >= 0]

    def footprint_lines(self) -> int:
        """Number of valid lines (the true occupancy figures 2/5 compare to)."""
        return int(np.count_nonzero(self._tags >= 0))

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def access_one(self, core: int, block: int) -> Tuple[bool, Optional[int]]:
        """Access one block; returns ``(hit, evicted_block_or_None)``."""
        result = self.access_batch(core, np.asarray([block], dtype=np.int64))
        evicted = int(result.evictions[0]) if len(result.evictions) else None
        return result.hits == 1, evicted

    def access_batch(self, core: int, blocks: np.ndarray) -> AccessResult:
        """Access a sequence of block addresses in order.

        Returns hit/miss counts and the fill/eviction event arrays the
        signature unit consumes. Statistics are updated as a side effect.
        Block addresses must be non-negative (-1 marks an invalid line).
        """
        if not 0 <= core < self.num_cores:
            raise ConfigurationError(
                f"core {core} out of range for {self.num_cores}-core cache"
            )
        if self._lru_batch is not None:
            result = self._access_batch_native(core, blocks)
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
            if len(blocks) and blocks.min() < 0:
                raise ConfigurationError(
                    f"negative block address {int(blocks.min())} in access batch"
                )
            result = self._access_batch_lru(core, blocks)
        self.stats.record(core, result.hits, result.misses, len(result.evictions))
        return result

    def _access_batch_native(self, core: int, blocks: np.ndarray) -> AccessResult:
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        n = len(blocks)
        out = np.empty((4, n), dtype=np.int64)
        ffi, counts = self._ffi, self._lru_counts
        if self._lru_batch(
            *self._lru_state, self._clock, core,
            ffi.from_buffer("int64_t[]", blocks), n,
            ffi.from_buffer("int64_t[]", out), counts,
        ):
            raise ConfigurationError(
                f"negative block address {counts[0]} in access batch"
            )
        self._clock += n
        fills, evictions = counts[0], counts[1]
        return AccessResult(
            hits=n - fills,
            misses=fills,
            fills=out[0, :fills],
            fill_slots=out[1, :fills],
            evictions=out[2, :evictions],
            evict_slots=out[3, :evictions],
        )

    def _access_batch_lru(self, core: int, blocks: np.ndarray) -> AccessResult:
        n = len(blocks)
        sets = blocks & self._set_mask
        first_stamp = self._clock + 1
        self._clock += n
        order = sets.argsort(kind="stable")
        sorted_sets = sets[order]
        repeats = sorted_sets[1:] == sorted_sets[:-1]
        if not repeats.any():
            # Every reference has a set of its own: one round, in order.
            slots, old = self._lru_round(
                sets, blocks, np.arange(first_stamp, first_stamp + n)
            )
        else:
            # Round r holds each set's r-th reference, so the sets of one
            # round are distinct and a round is one vectorised step.
            positions = np.arange(n)
            run_start = np.maximum.accumulate(
                np.where(np.concatenate(([True], ~repeats)), positions, 0)
            )
            rank = np.empty(n, dtype=np.int64)
            rank[order] = positions - run_start
            slots = np.empty(n, dtype=np.int64)
            old = np.empty(n, dtype=np.int64)
            for r in range(int(rank.max()) + 1):
                p = (rank == r).nonzero()[0]
                slots[p], old[p] = self._lru_round(
                    sets[p], blocks[p], p + first_stamp
                )
        missed = (old != blocks).nonzero()[0]
        fills = blocks.take(missed)
        fill_slots = slots.take(missed)
        # A line filled twice in one batch was filled by this core both times.
        self._slot_owner[fill_slots] = core
        replaced = old.take(missed)
        evicting = (replaced >= 0).nonzero()[0]
        return AccessResult(
            hits=n - len(fills),
            misses=len(fills),
            fills=fills,
            fill_slots=fill_slots,
            evictions=replaced.take(evicting),
            evict_slots=fill_slots.take(evicting),
        )

    def _lru_round(
        self, sets: np.ndarray, blocks: np.ndarray, stamps: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Access *blocks*, one per distinct set; return (slots, old tags).

        A hit keys its way at -1, below every stamp, so one ``argmin`` per
        row finds the hit way, else the lowest empty way (stamp 0), else
        the least recently used one. Owners are the caller's to write.
        """
        key = self._stamps.take(sets, axis=0)
        key[self._tags.take(sets, axis=0) == blocks[:, None]] = -1
        slots = sets * self.ways + key.argmin(axis=1)
        old = self._slot_tags.take(slots)
        self._slot_tags[slots] = blocks
        self._slot_stamps[slots] = stamps
        return slots, old

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Invalidate all lines and zero statistics."""
        self._tags.fill(-1)
        self._tag_owner.fill(-1)
        self._stamps.fill(0)
        self._clock = 0
        self.stats.reset()

    def __repr__(self) -> str:
        return f"SetAssociativeCache({self.geometry}, cores={self.num_cores})"
