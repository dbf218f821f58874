"""Adversarial trace generators (the attack side of the robustness suite).

Each generator is a seeded, deterministic
:class:`~repro.workloads.base.TraceGenerator` constructed to violate one
assumption the scheduling stack rests on:

* :class:`AliasingGenerator` — attacks the **signature**: every address
  it emits XOR-folds to the *same* filter index (a constructed preimage
  family of :class:`~repro.core.hashes.XorFoldHash`), so processes with
  wildly different true reuse present identical CBF images and the
  symbiosis estimate carries no signal.
* :class:`SaturatingGenerator` — attacks the **filter capacity**: a
  footprint bomb touching far more distinct blocks than the filter has
  entries, driving occupancy to saturation where popcount stops
  discriminating.
* :class:`ThrashingGenerator` — attacks the **cache**: a cyclic
  sequential sweep over a region just larger than the shared cache, the
  textbook LRU worst case (every access misses, co-runners are evicted
  wholesale).
* :class:`PhaseFlapGenerator` — attacks the **adaptation windows**: its
  reference stream oscillates between two disjoint hot regions faster
  than the registry's EWMA can converge, so every observation window
  sees a different footprint.

All generators derive their randomness exclusively from the seeded base
class — they are part of the simulation core's determinism scope
(``SIM_CORE_PACKAGES``), and two constructions with equal parameters
produce byte-identical streams.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import require_positive, require_power_of_two
from repro.workloads.base import TraceGenerator

__all__ = [
    "alias_preimages",
    "AliasingGenerator",
    "SaturatingGenerator",
    "ThrashingGenerator",
    "PhaseFlapGenerator",
]


def alias_preimages(
    num_entries: int,
    target_index: int,
    count: int,
    *,
    lane: int = 0,
    spread: int = 1,
) -> np.ndarray:
    """*count* distinct block addresses folding into a tiny index band.

    With ``b = log2(num_entries)`` the XOR fold of an address is the XOR
    of its ``b``-bit chunks. For any ``r < num_entries`` and target
    ``t``, the address ``(r << b) | (t ^ r)`` has exactly two non-zero
    chunks — ``r`` and ``t ^ r`` — whose XOR is ``t``. Distinct ``r``
    values give distinct addresses, so the family yields up to
    ``num_entries`` colliding blocks per target index.

    ``spread`` widens the attack from one index to the band
    ``[target_index, target_index + spread)``: block *i* folds to
    ``target_index + (i % spread)``. A spread-``s`` stream presents at
    most ``s`` filter indices no matter how many distinct blocks it
    touches — the under-reported-footprint disguise.

    ``lane`` partitions the ``r`` space: lane *k* draws ``r`` from
    ``[k*count, (k+1)*count)``, so several co-scheduled aliasing
    processes collide on the same index band without ever sharing a
    block. Requires ``(lane + 1) * count <= num_entries``.
    """
    require_power_of_two(num_entries, "num_entries")
    require_positive(count, "count")
    require_positive(spread, "spread")
    bits = num_entries.bit_length() - 1
    if bits == 0:
        raise WorkloadError("aliasing needs num_entries >= 2")
    if bits > 24:
        raise WorkloadError(
            "preimage construction needs 2*log2(num_entries) <= 48 fold bits"
        )
    if not 0 <= target_index < num_entries:
        raise WorkloadError(
            f"target_index {target_index} out of range for {num_entries} entries"
        )
    if target_index + spread > num_entries:
        raise WorkloadError(
            f"index band [{target_index}, {target_index + spread}) exceeds "
            f"{num_entries} entries"
        )
    if lane < 0:
        raise WorkloadError(f"lane must be >= 0, got {lane}")
    if (lane + 1) * count > num_entries:
        raise WorkloadError(
            f"lane {lane} with {count} preimages exceeds the {num_entries} "
            "distinct r values available"
        )
    r = lane * count + np.arange(count, dtype=np.int64)
    targets = np.int64(target_index) + (
        np.arange(count, dtype=np.int64) % spread
    )
    return (r << bits) | (targets ^ r)


class AliasingGenerator(TraceGenerator):
    """Signature-aliasing stream: one CBF index, configurable true reuse.

    Two instances with the same ``num_entries``/``target_index`` but
    different ``reuse`` behave identically to the signature unit (one
    filter index, indistinguishable occupancy) while imposing completely
    different cache pressure — the construction that breaks
    signature-based symbiosis estimation.

    Parameters
    ----------
    num_entries:
        Filter size the attack is constructed against (power of two, the
        target machine's ``SignatureConfig.num_entries``).
    target_index:
        Filter index every emitted block folds to.
    region_blocks:
        Distinct colliding blocks in the stream's working set.
    reuse:
        ``'scan'`` — cyclic sequential sweep over the region (streaming,
        zero temporal reuse); ``'hot'`` — most accesses hit a small hot
        subset (strong reuse). Both present the same signature.
    hot_fraction:
        Fraction of the region forming the hot subset (``'hot'`` only).
    lane:
        Address-space lane (see :func:`alias_preimages`); give each
        co-scheduled aliasing process its own lane.
    spread:
        Width of the filter-index band the stream folds into (see
        :func:`alias_preimages`); the stream's apparent footprint.

    A ``'scan'`` stream is split-invariant. A ``'hot'`` one is not: each
    call draws ``random(n)`` and then two ``integers(n)``, so one long
    call yields a different stream than the same length in batches.
    """

    REUSE_KINDS = ("scan", "hot")

    def __init__(
        self,
        num_entries: int,
        target_index: int = 0,
        region_blocks: int = 256,
        reuse: str = "scan",
        hot_fraction: float = 0.125,
        lane: int = 0,
        spread: int = 1,
        base_block: int = 0,
        seed: int = 0,
    ):
        if base_block != 0:
            raise WorkloadError(
                "AliasingGenerator constructs absolute addresses; "
                "base_block must stay 0 (use lane for disjoint slices)"
            )
        if reuse not in self.REUSE_KINDS:
            raise WorkloadError(
                f"reuse must be one of {self.REUSE_KINDS}, got {reuse!r}"
            )
        if not 0.0 < hot_fraction <= 1.0:
            raise WorkloadError(
                f"hot_fraction must be in (0, 1], got {hot_fraction}"
            )
        super().__init__(base_block=base_block, seed=seed)
        self.num_entries = num_entries
        self.target_index = target_index
        self.region_blocks = require_positive(region_blocks, "region_blocks")
        self.reuse = reuse
        self.hot_fraction = hot_fraction
        self.lane = lane
        self.spread = spread
        self._blocks = alias_preimages(
            num_entries, target_index, region_blocks, lane=lane, spread=spread
        )
        self._hot_count = max(1, int(region_blocks * hot_fraction))
        self._pos = 0
        if reuse == "scan":
            self.split_granule = 1

    def _restart(self) -> None:
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        if self.reuse == "scan":
            idx = (self._pos + np.arange(n, dtype=np.int64)) % self.region_blocks
            self._pos = (self._pos + n) % self.region_blocks
            return self._blocks[idx]
        # 'hot': ~90% of accesses in the hot subset, rest cold uniform.
        hot = self._rng.random(n) < 0.9
        idx = np.where(
            hot,
            self._rng.integers(0, self._hot_count, n),
            self._rng.integers(0, self.region_blocks, n),
        )
        return self._blocks[idx]


class SaturatingGenerator(TraceGenerator):
    """CBF footprint bomb: touches vastly more blocks than filter entries.

    A uniform stream over a region sized as a multiple of the target
    filter drives nearly every counter non-zero, saturating occupancy —
    after which the signature's popcount conveys nothing about the
    process's true working set.

    Parameters
    ----------
    filter_entries:
        Filter size the bomb is sized against.
    pressure:
        Region size as a multiple of ``filter_entries``.
    """

    split_granule = 1

    def __init__(
        self,
        filter_entries: int,
        pressure: float = 4.0,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        require_positive(filter_entries, "filter_entries")
        if pressure <= 0:
            raise WorkloadError(f"pressure must be > 0, got {pressure}")
        self.filter_entries = filter_entries
        self.pressure = pressure
        self.region_blocks = max(1, int(filter_entries * pressure))

    def _generate(self, n: int) -> np.ndarray:
        return self._rng.integers(0, self.region_blocks, n, dtype=np.int64)


class ThrashingGenerator(TraceGenerator):
    """LRU worst case: cyclic sequential sweep just wider than the cache.

    Every access misses (the line it needs was evicted exactly
    ``region_blocks`` accesses ago) and each miss evicts a co-runner's
    line — maximum interference per reference.

    Parameters
    ----------
    cache_lines:
        Shared-cache capacity in lines the sweep is sized against.
    overshoot:
        Region size as a multiple of ``cache_lines`` (> 1 guarantees the
        reuse distance exceeds capacity).
    """

    split_granule = 1

    def __init__(
        self,
        cache_lines: int,
        overshoot: float = 1.25,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        require_positive(cache_lines, "cache_lines")
        if overshoot <= 1.0:
            raise WorkloadError(
                f"overshoot must be > 1.0 to defeat LRU, got {overshoot}"
            )
        self.cache_lines = cache_lines
        self.overshoot = overshoot
        self.region_blocks = max(2, int(cache_lines * overshoot))
        self._pos = 0

    def _restart(self) -> None:
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        rel = (self._pos + np.arange(n, dtype=np.int64)) % self.region_blocks
        self._pos = (self._pos + n) % self.region_blocks
        return rel


class PhaseFlapGenerator(TraceGenerator):
    """Oscillates between two disjoint hot regions faster than the EWMA.

    The stream alternates every ``period`` accesses between region A and
    region B (disjoint, each ``region_blocks`` wide). An observation
    window longer than ``period`` sees a blend of both regions and the
    EWMA never converges; a mapper trusting each sample chases a moving
    target (the flap-attack input for the
    :class:`~repro.service.mapper.IncrementalMapper` guard).

    Parameters
    ----------
    region_blocks:
        Width of each hot region.
    period:
        Accesses spent in one region before flipping.
    """

    split_granule = 1

    def __init__(
        self,
        region_blocks: int = 512,
        period: int = 256,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        self.region_blocks = require_positive(region_blocks, "region_blocks")
        self.period = require_positive(period, "period")
        self._pos = 0

    def _restart(self) -> None:
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        offsets = self._rng.integers(0, self.region_blocks, n, dtype=np.int64)
        ticks = self._pos + np.arange(n, dtype=np.int64)
        phase = (ticks // self.period) % 2
        self._pos += n
        # Region B sits one full region above A (disjoint hot sets).
        return offsets + phase * self.region_blocks
