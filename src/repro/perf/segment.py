"""The exact engine's loop in C, from one scheduler event to the next.

:meth:`~repro.perf.simulator.MulticoreSimulator.run` calls
:meth:`Segment.run` where its loop would run a batch that
:meth:`Segment.serves`: one that leaves its task's run unfinished and
that the task's read-ahead holds. The ``run_segment`` kernel
(:mod:`repro.native`) then runs batches back to back: it picks the first
least-advanced runnable core, slices the batch from its task's
read-ahead, runs the L2's ``lru_batch`` walk and (with a signature unit)
``cbf_events``, and applies the timing model, the miss-intensity EMA,
the task's accounting and the quantum charge, each expression in the
Python source's operand order, so every result is byte-identical.
A task whose generator keeps no read-ahead (``split_granule != 1``)
never enters the kernel, and costs the per-batch loop one check; a run
with no other tasks has no kernel loop.

It hands back as soon as the next step needs Python, and the
simulator's per-batch loop, the reference and the fallback, handles
that step:

* before a batch: the monitor is due, the wall limit is reached, the
  batch would complete its task (restart bookkeeping stays in
  :meth:`~repro.sched.process.SimTask.advance`), the task's read-ahead
  cannot serve it (a refill, or a generator that keeps none), or the
  batch would raise (a negative block, or task timing parameters that
  make ``instructions_for`` or ``batch_cycles`` raise), so the error
  keeps its type, text and state;
* after a batch: the core's quantum expired (the simulator runs the
  context switch), or every task has completed once and the latest
  core clock reached ``min_wall_cycles`` (the run ends).

:func:`segment_for` gives a run the kernel only where some task keeps a
read-ahead and the kernel computes what the per-batch loop would: a
shared L2 on the kernel path with no L1s, no signature unit or one on
``cbf_events`` without a fault injector, and the L2's ``access_batch``,
the unit's ``record_events`` and every task generator's ``next_batch``
the engine's own functions, replaced neither on their class nor on the
instance (a wrapper then sees every reference, as on the per-batch
path).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.core.signature import SignatureUnit
from repro.workloads.base import TraceGenerator

__all__ = ["SEGMENT_BEFORE", "SEGMENT_END", "Segment", "segment_for"]

#: :meth:`Segment.run`'s results besides a core whose quantum expired
#: (the ``#define``s of ``kernels.c``).
SEGMENT_BEFORE = -1  # the next batch needs Python
SEGMENT_END = -2  # the run ends after the last batch

#: Batches whose L2 misses one call can record for telemetry before it
#: hands back to have them drained.
MISSES_CAPACITY = 4096

#: The functions the kernel stands in for, as the engine defines them
#: (taken when the simulator module is imported, before any wrapper).
_ENGINE_FUNCTIONS = (
    (SetAssociativeCache, "access_batch", SetAssociativeCache.access_batch),
    (SignatureUnit, "record_events", SignatureUnit.record_events),
    (TraceGenerator, "next_batch", TraceGenerator.next_batch),
)

_INT64 = np.dtype(np.int64)


def _unreplaced(obj) -> bool:
    """True when *obj* runs the engine's own function of its kind."""
    for cls, name, function in _ENGINE_FUNCTIONS:
        if isinstance(obj, cls):
            return getattr(type(obj), name) is function and name not in vars(obj)
    return False


def segment_for(simulator, kernels, core_time, intensity, *, min_wall_cycles,
                max_wall_cycles, telemetry: bool) -> Optional["Segment"]:
    """The kernel loop for one run of *simulator*, or ``None`` where the
    per-batch loop must run it (see the module docstring). The arguments
    after *kernels* are :class:`Segment`'s."""
    cache = simulator._shared_cache
    unit = simulator.signature_unit
    if kernels is None or cache is None or simulator._l1s is not None:
        return None
    if cache._lru_batch is None:
        return None
    if unit is not None and (unit._cbf_events is None or unit.injector is not None):
        return None
    if not any(t.generator.split_granule == 1 for t in simulator.tasks):
        return None  # no task keeps a read-ahead the kernel can serve
    engine = [cache, *(t.generator for t in simulator.tasks)]
    if unit is not None:
        engine.append(unit)
    if not all(_unreplaced(obj) for obj in engine):
        return None
    return Segment(
        simulator, kernels, core_time, intensity,
        min_wall_cycles=min_wall_cycles, max_wall_cycles=max_wall_cycles,
        telemetry=telemetry,
    )


class Segment:
    """``run_segment``'s state for one run, and the copies in and out.

    *core_time* and *intensity* are the run's ``array('d')`` core clocks
    and miss intensities, which the kernel reads and writes in place;
    everything else is copied into the kernel's structs before each call
    and written back after it. With *telemetry* on, the kernel also
    records each batch's L2 misses and times its phases.
    """

    def __init__(self, simulator, kernels, core_time, intensity, *,
                 min_wall_cycles, max_wall_cycles, telemetry: bool):
        ffi = self._ffi = kernels.ffi
        self._run = kernels.lib.run_segment
        self._cache = cache = simulator._shared_cache
        self._unit = unit = simulator.signature_unit
        self._sched = simulator.scheduler
        timing = simulator.machine.timing
        self._batch = batch = simulator.batch_accesses
        self._num_cores = simulator.machine.num_cores
        s = self._state = ffi.new("segment_state *")
        s.tags, s.stamps, s.owner, s.set_mask, s.ways = cache._lru_state
        if unit is not None:
            s.counters, s.core_bits, s.entries, _ = unit._cbf_state
            s.counter_max, s.index_bits, s.fold_bits = unit._cbf_hash
        s.cpi_base = timing.cpi_base
        s.l1_hit_cycles = timing.l1_hit_cycles
        s.l2_hit_cycles = timing.l2_hit_cycles
        s.mem_cycles = timing.mem_cycles
        s.queue_coeff = timing.queue_coeff
        s.per_access_cycles = timing.per_access_cycles
        s.intensity_ema = timing.intensity_ema
        s.timeslice_cycles = self._sched.config.timeslice_cycles
        s.batch = batch
        s.max_wall_cycles = math.inf if max_wall_cycles is None else max_wall_cycles
        s.min_wall_cycles = -math.inf if min_wall_cycles is None else min_wall_cycles
        # The kernel holds raw pointers into these; the segment keeps
        # them (and the arrays behind them) alive. CacheStats.reset
        # zeroes the hit and miss arrays in place.
        self._buffers = [
            ffi.new("int64_t[]", batch),
            ffi.new("int64_t[]", 4 * batch),
            ffi.from_buffer("int64_t[]", cache.stats.hits),
            ffi.from_buffer("int64_t[]", cache.stats.misses),
            ffi.from_buffer("double[]", core_time),
            ffi.from_buffer("double[]", intensity),
        ]
        s.blocks, s.events, s.hits, s.misses = self._buffers[:4]
        self._core_time, self._intensity = self._buffers[4:]
        if telemetry:
            self._misses = ffi.new("int64_t[]", MISSES_CAPACITY)
            self._phase_ns = ffi.new("int64_t[4]")
            s.batch_misses, s.misses_capacity = self._misses, MISSES_CAPACITY
            s.phase_ns = self._phase_ns
        self._cores = ffi.new("segment_core[]", self._num_cores)
        self._heads: List[Optional[tuple]] = [None] * self._num_cores
        self._aheads: List[Optional[np.ndarray]] = [None] * self._num_cores

    @property
    def batches(self) -> int:
        """Batches the kernel has run so far."""
        return self._state.batches

    def serves(self, task) -> bool:
        """Whether the kernel can run *task*'s next batch: the batch leaves
        the task's run unfinished and its generator's read-ahead holds it.
        (The kernel may still hand it back, where Python would raise.)"""
        gen = task.generator
        return (
            task.total_accesses - task.accesses_done > self._batch
            and len(gen._ahead) - gen._ahead_pos >= self._batch
        )

    def run(self, next_invocation: Optional[float], all_done: bool) -> int:
        """Run batches until the next step needs Python; returns a core
        whose quantum expired or one of the ``SEGMENT_*`` results."""
        s, slots, heads = self._state, self._cores, self._heads
        sched = self._sched
        quantum = sched.quantum_used
        for c, queue in enumerate(sched.queues):
            slot = slots[c]
            if not queue:
                slot.runnable = 0
                heads[c] = None
                continue
            task = queue[0]
            gen = task.generator
            if gen._ahead is not self._aheads[c]:
                self._bind_ahead(c, gen._ahead)
            pos = gen._ahead_pos
            slot.runnable = 1
            slot.ahead_pos = pos
            slot.base_block = gen.base_block
            slot.remaining = task.total_accesses - task.accesses_done
            slot.accesses_per_kinstr = task.accesses_per_kinstr
            slot.mlp = task.mlp
            slot.user_cycles = task.user_cycles
            slot.quantum_used = quantum[c]
            heads[c] = (task, gen, pos)
        cache = self._cache
        s.clock = cache._clock
        s.next_invocation = math.inf if next_invocation is None else next_invocation
        s.all_done = all_done
        status = self._run(s, slots, self._num_cores, self._core_time, self._intensity)

        for c, head in enumerate(heads):
            if head is None:
                continue
            task, gen, pos = head
            slot = slots[c]
            end = slot.ahead_pos
            if end == pos:
                continue
            gen.blocks_generated += end - pos
            if end == len(gen._ahead):
                gen._drop_read_ahead()
            else:
                gen._ahead_pos = end
            task.accesses_done = task.total_accesses - slot.remaining
            task.user_cycles = slot.user_cycles
            quantum[c] = slot.quantum_used
        cache._clock = s.clock
        if s.fills or s.evictions:
            cache.stats.evictions += s.evictions
            unit = self._unit
            if unit is not None:
                # Read at return: SignatureUnit.reset replaces the object.
                unit_stats = unit.stats
                unit_stats.fills_tracked += s.fills
                unit_stats.evictions_tracked += s.evictions
                unit_stats.saturation_events += s.saturated
                unit_stats.underflow_events += s.underflowed
        return status

    def drain_misses(self) -> List[int]:
        """The L2 misses of each batch recorded since the last drain."""
        s = self._state
        misses = self._ffi.unpack(self._misses, s.misses_len)
        s.misses_len = 0
        return misses

    def phase_seconds(self) -> List[float]:
        """Seconds the kernel spent in trace_gen, l2_access, signature and
        timing so far."""
        return [ns / 1e9 for ns in self._phase_ns]

    def _bind_ahead(self, core: int, ahead) -> None:
        slot = self._cores[core]
        self._aheads[core] = ahead
        if (
            isinstance(ahead, np.ndarray)
            and ahead.dtype == _INT64
            and ahead.flags.c_contiguous
            and len(ahead)
        ):
            slot.ahead = self._ffi.from_buffer("int64_t[]", ahead)
            slot.ahead_len = len(ahead)
        else:  # nothing the kernel can serve
            slot.ahead = self._ffi.NULL
            slot.ahead_len = 0
