"""Address-pattern generators and the profile → generator factory.

Each generator models one locality archetype observed in the paper's
benchmark pool:

* :class:`StridedGenerator` / :class:`StreamGenerator` — regular sweeps
  (libquantum-style streaming, Figure 1's conjured patterns);
* :class:`RandomRegionGenerator` — uniform low-locality traffic
  (hmmer-style bandwidth-bound behaviour);
* :class:`HotColdGenerator` — two-level reuse skew (gobmk/perlbench-style
  moderate locality);
* :class:`PointerChaseGenerator` — dependent-chain traversal over a
  shuffled cycle (mcf/omnetpp-style cache-sensitive behaviour);
* :class:`PhasedGenerator` — time-varying footprint (the aim9-like
  microbenchmark of Figures 2/5);
* :class:`MixtureGenerator` — weighted interleaving of sub-patterns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import require_positive
from repro.workloads.base import TraceGenerator, WorkloadProfile

__all__ = [
    "StridedGenerator",
    "StreamGenerator",
    "RandomRegionGenerator",
    "HotColdGenerator",
    "PointerChaseGenerator",
    "SlidingWindowGenerator",
    "PhasedGenerator",
    "MixtureGenerator",
    "generator_for_profile",
]


class StridedGenerator(TraceGenerator):
    """Sweep a region with a fixed stride, wrapping around.

    With ``stride`` equal to the number of cache sets this reproduces
    Figure 1's 'same miss rate, different footprint' conflict pattern.
    """

    split_granule = 1

    def __init__(
        self,
        region_blocks: int,
        stride_blocks: int = 1,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        self.region_blocks = require_positive(region_blocks, "region_blocks")
        self.stride_blocks = require_positive(stride_blocks, "stride_blocks")
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        steps = np.arange(self._pos, self._pos + n, dtype=np.int64)
        self._pos = (self._pos + n) % self.region_blocks
        return (steps * self.stride_blocks) % self.region_blocks

    def _restart(self) -> None:
        self._pos = 0


class StreamGenerator(StridedGenerator):
    """Unit-stride streaming over a (typically cache-exceeding) region."""

    def __init__(self, region_blocks: int, base_block: int = 0, seed: int = 0):
        super().__init__(region_blocks, 1, base_block=base_block, seed=seed)


class RandomRegionGenerator(TraceGenerator):
    """Uniform random references within a region (low locality)."""

    split_granule = 1

    def __init__(self, region_blocks: int, base_block: int = 0, seed: int = 0):
        super().__init__(base_block=base_block, seed=seed)
        self.region_blocks = require_positive(region_blocks, "region_blocks")

    def _generate(self, n: int) -> np.ndarray:
        return self._rng.integers(0, self.region_blocks, n, dtype=np.int64)


class HotColdGenerator(TraceGenerator):
    """Two-level reuse: a hot subset absorbs most references.

    Each reference targets the hot region (``[0, hot_blocks)``) with
    probability *hot_fraction*, else the whole region — the standard
    cheap stand-in for a Zipf-like reuse distribution.
    """

    split_granule = 1

    def __init__(
        self,
        region_blocks: int,
        hot_blocks: int,
        hot_fraction: float = 0.9,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        self.region_blocks = require_positive(region_blocks, "region_blocks")
        self.hot_blocks = require_positive(hot_blocks, "hot_blocks")
        if self.hot_blocks > self.region_blocks:
            raise WorkloadError("hot_blocks exceeds region_blocks")
        if not 0.0 <= hot_fraction <= 1.0:
            raise WorkloadError(f"hot_fraction must be in [0,1], got {hot_fraction}")
        self.hot_fraction = float(hot_fraction)

    def _generate(self, n: int) -> np.ndarray:
        # Single inverse-CDF draw: u < f maps into the hot region, the rest
        # maps uniformly over the whole region. One stream draw per access
        # keeps the sequence invariant under batch splitting. Both
        # branches are computed over the whole draw and one is picked per
        # reference; f = 0 and f = 1 have one branch each, which keeps the
        # other's division by zero out.
        u = self._rng.random(n)
        f = self.hot_fraction
        if f == 0.0:
            scaled = (u - f) / (1.0 - f) * self.region_blocks
        elif f == 1.0:
            scaled = u / f * self.hot_blocks
        else:
            scaled = np.where(
                u < f,
                u / f * self.hot_blocks,
                (u - f) / (1.0 - f) * self.region_blocks,
            )
        out = scaled.astype(np.int64)
        # Both branches are >= 0 by construction; only float rounding up
        # to the region size needs clamping.
        np.minimum(out, self.region_blocks - 1, out=out)
        return out


class PointerChaseGenerator(TraceGenerator):
    """Dependent-chain traversal of a shuffled single-cycle permutation.

    Models linked-data-structure benchmarks (mcf, omnetpp): the access
    order is fixed, covers the whole region exactly once per lap, and has
    no spatial locality — the classic worst case for caches slightly
    smaller than the region.
    """

    split_granule = 1

    def __init__(self, region_blocks: int, base_block: int = 0, seed: int = 0):
        super().__init__(base_block=base_block, seed=seed)
        self.region_blocks = require_positive(region_blocks, "region_blocks")
        # Materialise the chase order once: a shuffled visiting sequence is
        # equivalent to following a random single-cycle permutation.
        order = np.arange(self.region_blocks, dtype=np.int64)
        np.random.default_rng(self.seed).shuffle(order)
        self._order = order
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        idx = (np.arange(self._pos, self._pos + n, dtype=np.int64)) % self.region_blocks
        self._pos = (self._pos + n) % self.region_blocks
        return self._order[idx]

    def _restart(self) -> None:
        self._pos = 0


class SlidingWindowGenerator(TraceGenerator):
    """Streaming references with a bounded live window.

    Each reference either advances the stream cursor to a fresh block
    (probability *churn*) or re-touches a uniformly random block within the
    last *window_blocks* — so the live working set stays at
    ``window_blocks`` while fresh data flows through indefinitely (the
    aim9_disk-like behaviour behind Figures 2/5: the miss rate is governed
    by churn, the footprint by the window, and the two are independent).

    A single uniform draw per access doubles as the new/reuse decision and
    the reuse offset, keeping the stream invariant under batch splitting.
    """

    split_granule = 1

    def __init__(
        self,
        window_blocks: int,
        churn: float = 0.3,
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        self.window_blocks = require_positive(window_blocks, "window_blocks")
        if not 0.0 < churn <= 1.0:
            raise WorkloadError(f"churn must be in (0, 1], got {churn}")
        self.churn = float(churn)
        self._cursor = 0

    def _generate(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        fresh = u < self.churn
        cursors = self._cursor + np.cumsum(fresh.astype(np.int64))
        out = cursors.copy()
        reuse = ~fresh
        if reuse.any():
            v = (u[reuse] - self.churn) / (1.0 - self.churn)
            offsets = (v * self.window_blocks).astype(np.int64) + 1
            out[reuse] = np.maximum(cursors[reuse] - offsets, 0)
        self._cursor = int(cursors[-1]) if n else self._cursor
        return out

    def _restart(self) -> None:
        self._cursor = 0


class PhasedGenerator(TraceGenerator):
    """Concatenate sub-generators, each active for a fixed access budget.

    Used for the aim9-like microbenchmark whose true footprint steps up and
    down over time (Figures 2 and 5). Phases repeat cyclically. It is
    split-invariant at any length when every phase generator is.
    """

    def __init__(
        self,
        phases: Sequence[Tuple[TraceGenerator, int]],
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        if not phases:
            raise WorkloadError("PhasedGenerator needs at least one phase")
        for _, length in phases:
            require_positive(length, "phase length")
        self.phases = list(phases)
        if all(gen.split_granule == 1 for gen, _ in self.phases):
            self.split_granule = 1
        self._phase_index = 0
        self._remaining = self.phases[0][1]

    @property
    def current_phase(self) -> int:
        """Index of the active phase (for test/figure instrumentation)."""
        return self._phase_index

    def _generate(self, n: int) -> np.ndarray:
        out: List[np.ndarray] = []
        needed = n
        while needed > 0:
            gen, _ = self.phases[self._phase_index]
            take = min(needed, self._remaining)
            out.append(gen.next_batch(take))
            needed -= take
            self._remaining -= take
            if self._remaining == 0:
                self._phase_index = (self._phase_index + 1) % len(self.phases)
                self._remaining = self.phases[self._phase_index][1]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _restart(self) -> None:
        for gen, _ in self.phases:
            gen.reset()
        self._phase_index = 0
        self._remaining = self.phases[0][1]


class MixtureGenerator(TraceGenerator):
    """Weighted interleaving of sub-generators in small chunks.

    Chunked (rather than per-access) interleaving keeps each component's
    short-range locality intact while still blending footprints.

    Each call draws one component per started chunk, so a call that ends
    mid-chunk draws for a chunk it only partly serves: the stream is
    split-invariant only at multiples of :attr:`CHUNK`, and only when every
    component is split-invariant at a divisor of it.
    """

    CHUNK = 16

    def __init__(
        self,
        generators: Sequence[TraceGenerator],
        weights: Sequence[float],
        base_block: int = 0,
        seed: int = 0,
    ):
        super().__init__(base_block=base_block, seed=seed)
        if not generators or len(generators) != len(weights):
            raise WorkloadError("generators and weights must align and be non-empty")
        total = float(sum(weights))
        if total <= 0:
            raise WorkloadError("weights must sum to a positive value")
        self.generators = list(generators)
        self.weights = np.asarray(weights, dtype=np.float64) / total
        if all(
            gen.split_granule and self.CHUNK % gen.split_granule == 0
            for gen in self.generators
        ):
            self.split_granule = self.CHUNK

    def _generate(self, n: int) -> np.ndarray:
        # One vectorised draw replaces a scalar rng.choice per chunk,
        # consuming the bit stream identically (choice with p is
        # searchsorted(cdf, random()) internally, and random(m) draws
        # the same doubles as m scalar calls) — traces are byte-for-byte
        # what the per-chunk loop produced. Consecutive chunks from the
        # same component merge into one next_batch call, which changes a
        # component's stream only if it is not split-invariant at CHUNK
        # multiples.
        num_chunks = -(-n // self.CHUNK)
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        which = cdf.searchsorted(self._rng.random(num_chunks), side="right")
        out: List[np.ndarray] = []
        remaining = n
        start = 0
        while start < num_chunks:
            end = start + 1
            while end < num_chunks and which[end] == which[start]:
                end += 1
            take = min((end - start) * self.CHUNK, remaining)
            out.append(self.generators[int(which[start])].next_batch(take))
            remaining -= take
            start = end
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _restart(self) -> None:
        for gen in self.generators:
            gen.reset()


def generator_for_profile(
    profile: WorkloadProfile, base_block: int = 0, seed: int = 0
) -> TraceGenerator:
    """Instantiate the trace generator matching a profile's pattern.

    The profile's ``locality`` is the fraction of references served by the
    hot set for the skewed patterns.
    """
    ws = profile.working_set_blocks
    hot = profile.hot_set_blocks
    loc = profile.locality
    if profile.pattern == "stream":
        return StreamGenerator(ws, base_block=base_block, seed=seed)
    if profile.pattern == "strided":
        return StridedGenerator(ws, 1, base_block=base_block, seed=seed)
    if profile.pattern == "random":
        return RandomRegionGenerator(ws, base_block=base_block, seed=seed)
    if profile.pattern == "zipf":
        return HotColdGenerator(
            ws, hot, hot_fraction=loc, base_block=base_block, seed=seed
        )
    if profile.pattern == "pointer_chase":
        if hot >= ws:
            return PointerChaseGenerator(ws, base_block=base_block, seed=seed)
        # Chase within the hot set most of the time; occasionally touch the
        # cold remainder (mcf-style: reused core structures + sparse data).
        return MixtureGenerator(
            [
                PointerChaseGenerator(hot, base_block=0, seed=seed + 1),
                RandomRegionGenerator(ws, base_block=0, seed=seed + 2),
            ],
            weights=[loc, 1.0 - loc],
            base_block=base_block,
            seed=seed,
        )
    if profile.pattern == "mixed":
        return MixtureGenerator(
            [
                StridedGenerator(hot, 1, base_block=0, seed=seed + 1),
                RandomRegionGenerator(ws, base_block=0, seed=seed + 2),
            ],
            weights=[loc, 1.0 - loc],
            base_block=base_block,
            seed=seed,
        )
    raise WorkloadError(
        f"profile {profile.name!r} has unknown pattern {profile.pattern!r}"
    )
