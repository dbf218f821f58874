"""Trace-generator protocol and workload profile description.

A :class:`TraceGenerator` produces the L2-level reference stream of one
running entity as batches of **block (cache-line) addresses**. Generators
are stateful (the stream continues across batches), deterministic (seeded),
and restartable (:meth:`TraceGenerator.reset` replays the stream from the
beginning — used when a benchmark completes and is restarted, Section 4.2).

A :class:`WorkloadProfile` is the static description of a benchmark-like
workload: its working-set size, access pattern, memory intensity (L2
accesses per kilo-instruction) and a qualitative category. Profiles are the
substitution for SPEC/PARSEC binaries (see DESIGN.md): the scheduling
algorithms only ever observe the L2 reference stream, so a profile matching
a benchmark's footprint and locality class exercises the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import require_positive

__all__ = ["TraceGenerator", "WorkloadProfile", "BLOCK_BYTES"]

#: Cache-line size assumed when converting working-set bytes to blocks.
BLOCK_BYTES = 64

#: Most references a generator invariant at every split draws ahead of
#: the calls that read them (see :class:`TraceGenerator`).
READ_AHEAD = 8192

_NO_BLOCKS = np.empty(0, dtype=np.int64)


class TraceGenerator:
    """Stateful, deterministic block-address stream.

    Subclasses implement :meth:`_generate`; the base class handles the
    address-space base offset (so co-scheduled processes never share lines
    unless sharing is modelled explicitly) and restart bookkeeping.

    **Split contract.** A generator whose :attr:`split_granule` is a
    positive *g* is *split-invariant*: one ``next_batch(n)`` call returns
    the same references as any run of calls whose lengths sum to *n* and
    all but the last of which are multiples of *g*. A generator that is
    invariant at every split (*g* = 1) reads ahead: a call that finds too
    few references drawn draws as many as the stream has served since it
    started, at least the call's *n* and at most :data:`READ_AHEAD`, and
    the calls that follow are served from them. The first call after a
    start draws exactly *n*, and a short stream wastes at most what it
    served, while a long one is drawn in :data:`READ_AHEAD` pieces, which
    spares the exact engine one draw per small batch. Any other generator
    (``split_granule = 0``, the default, promises nothing) draws exactly
    what each call asks for.

    Parameters
    ----------
    base_block:
        Offset added to every produced block address — each process gets a
        disjoint slice of the block-address space, while cache-set conflicts
        still arise naturally from the low address bits.
    seed:
        Seed of the generator's private random stream.
    """

    #: Split contract granule (see the class docstring); 0 = no promise.
    split_granule = 0

    def __init__(self, base_block: int = 0, seed: int = 0):
        if base_block < 0:
            raise WorkloadError(f"base_block must be >= 0, got {base_block}")
        self.base_block = int(base_block)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.blocks_generated = 0
        self._drop_read_ahead()

    # -- subclass hook --------------------------------------------------
    def _generate(self, n: int) -> np.ndarray:
        """Produce *n* relative block addresses (before base offset)."""
        raise NotImplementedError

    def _restart(self) -> None:
        """Reset subclass position state (rng is handled by the base)."""

    # -- public API ------------------------------------------------------
    def next_batch(self, n: int) -> np.ndarray:
        """Return the next *n* absolute block addresses of the stream."""
        require_positive(n, "n")
        start = self._ahead_pos
        end = start + n
        if end > len(self._ahead):
            self._draw(n)
            start, end = 0, n
        rel = self._ahead[start:end]
        if end == len(self._ahead):
            self._drop_read_ahead()
        else:
            self._ahead_pos = end
        self.blocks_generated += n
        if self.base_block:
            return rel + self.base_block
        return rel

    def reset(self) -> None:
        """Restart the stream from the beginning (deterministic replay)."""
        self._rng = np.random.default_rng(self.seed)
        self.blocks_generated = 0
        self._drop_read_ahead()
        self._restart()

    # -- read-ahead -------------------------------------------------------
    def _draw(self, n: int) -> None:
        """Refill the read-ahead: its unserved rest, then fresh references,
        at least *n* in all."""
        rest = self._ahead[self._ahead_pos:]
        want = n
        if self.split_granule == 1:
            want = max(n, min(READ_AHEAD, self.blocks_generated))
        size = want - len(rest)
        rel = self._generate(size)
        if len(rel) != size:
            raise WorkloadError(
                f"{type(self).__name__}._generate returned {len(rel)} "
                f"addresses, expected {size}"
            )
        self._ahead = np.concatenate((rest, rel)) if len(rest) else rel
        self._ahead_pos = 0

    def _drop_read_ahead(self) -> None:
        self._ahead = _NO_BLOCKS
        self._ahead_pos = 0


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of a benchmark-like workload.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``'mcf'``).
    category:
        Qualitative class used in analysis: ``'cache_sensitive'``,
        ``'compute_bound'``, ``'bandwidth_bound'``, ``'streaming'``,
        ``'moderate'``.
    working_set_kb:
        Total region the workload touches.
    hot_set_kb:
        Size of the frequently-reused portion (equals ``working_set_kb``
        for patterns without reuse skew).
    accesses_per_kinstr:
        L2 references per 1000 instructions — the memory intensity that
        converts between instruction counts and trace length.
    pattern:
        Generator family: ``'pointer_chase'``, ``'random'``, ``'zipf'``,
        ``'strided'``, ``'stream'``, ``'mixed'``.
    locality:
        Pattern-specific knob (zipf exponent / hot-fraction weighting).
    mlp:
        Memory-level parallelism: how many misses the workload keeps in
        flight. Dependent pointer chases serialise misses (mlp ≈ 1);
        streaming code with effective prefetching overlaps many (mlp ≈ 4-8).
        The timing model divides the miss penalty by this factor, which is
        what lets streaming workloads flood a shared cache faster than
        chase-bound ones — the asymmetry behind the paper's worst pair
        (mcf + libquantum, Section 2.3.2).
    description:
        One-line provenance note (what behaviour of the real benchmark this
        profile mimics).
    """

    name: str
    category: str
    working_set_kb: int
    hot_set_kb: int
    accesses_per_kinstr: float
    pattern: str
    locality: float = 1.0
    mlp: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        require_positive(self.working_set_kb, "working_set_kb")
        require_positive(self.hot_set_kb, "hot_set_kb")
        if self.hot_set_kb > self.working_set_kb:
            raise WorkloadError(
                f"{self.name}: hot_set_kb {self.hot_set_kb} exceeds "
                f"working_set_kb {self.working_set_kb}"
            )
        if self.accesses_per_kinstr <= 0:
            raise WorkloadError(
                f"{self.name}: accesses_per_kinstr must be positive"
            )
        if self.mlp < 1.0:
            raise WorkloadError(f"{self.name}: mlp must be >= 1.0")

    @property
    def working_set_blocks(self) -> int:
        """Working-set size in cache lines."""
        return max(1, self.working_set_kb * 1024 // BLOCK_BYTES)

    @property
    def hot_set_blocks(self) -> int:
        """Hot-set size in cache lines."""
        return max(1, self.hot_set_kb * 1024 // BLOCK_BYTES)

    def accesses_for_instructions(self, instructions: int) -> int:
        """Trace length corresponding to *instructions* executed."""
        return max(1, int(instructions * self.accesses_per_kinstr / 1000.0))

    def instructions_for_accesses(self, accesses: int) -> int:
        """Instructions corresponding to a trace of *accesses* references."""
        return max(1, int(accesses * 1000.0 / self.accesses_per_kinstr))

    def make_generator(self, base_block: int = 0, seed: int = 0) -> TraceGenerator:
        """Instantiate this profile's trace generator.

        Implemented in :mod:`repro.workloads.patterns` (imported lazily to
        avoid a cycle).
        """
        from repro.workloads.patterns import generator_for_profile

        return generator_for_profile(self, base_block=base_block, seed=seed)
