"""The split counting-Bloom-filter signature unit (paper Section 3.1).

The paper's hardware proposal de-associates the CBF bit vector from its
counters:

* one shared **counter array** summarises the whole L2 (one counter per
  tracked entry, default width 3 bits),
* one **Core Filter (CF)** bit vector per core records which entries were
  filled by requests originating from that core,
* one **Last Filter (LF)** per core snapshots the CF at each context switch.

Update rules:

* **L2 miss (fill)** from core *c*: the counter indexed by the address hash
  is incremented and the corresponding CF bit of core *c* is set.
* **L2 eviction**: the counter indexed by the evicted block's hash is
  decremented; when it reaches zero the corresponding bit is cleared in
  *every* CF (the paper's documented over-clearing inaccuracy, retained
  deliberately).
* **Context switch** on core *c*: the outgoing entity's Running Bit Vector
  is ``RBV = CF_c & ~LF_c``, its occupancy weight is ``popcount(RBV)``, its
  symbiosis with core *j* is ``popcount(RBV ^ CF_j)``; then ``LF_c`` is
  re-snapshotted from ``CF_c`` for the incoming entity.

Two indexing schemes are supported:

* ``hash`` — one (or k) hash functions of the block address (the paper's
  proposal; k=1 by default);
* ``presence`` — a one-to-one mapping from the cache slot (set, way) to an
  entry, the "presence bits" baseline of Section 5.3.

Batching
--------
The unit records one cache batch at a time, vectorised: all fills first
(increments + CF sets), then all evictions (decrements + zero-clearing).
Fills-first matters: a line filled *and* evicted within the same batch
then nets to zero exactly as in strict order, whereas evictions-first
would clamp its decrement at zero and leave a phantom counter/CF bit.
The residual drift vs strict order is limited to when, within a batch,
a counter clamps or reaches zero, and it vanishes when each call records
one event: the unit then follows the true event order (property-tested
against a per-event model).

The configuration the simulator runs by default (XOR fold, k = 1, no set
sampling) records each batch with the compiled ``cbf_events`` kernel
(:mod:`repro.native`) when the process has it, over the same counter
and Core Filter arrays; every other configuration, the kernel-less
process and the public
:meth:`~SignatureUnit.record_fill_batch` /
:meth:`~SignatureUnit.record_eviction_batch` run the numpy code, which
is the kernel's reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import native
from repro.core.context import SignatureSample
from repro.core.hashes import HashFunction, make_hash_family
from repro.core.metrics import running_bit_vector, symbiosis_vector
from repro.core.sampling import SetSampler
from repro.errors import ConfigurationError, SignatureError
from repro.utils.bitvec import BitVector
from repro.utils.validation import (
    is_power_of_two,
    require_positive,
    require_power_of_two,
)

__all__ = [
    "SignatureConfig",
    "SignatureStats",
    "SignatureUnit",
    "SignatureHealth",
    "HealthReport",
    "SignatureConfidence",
    "signature_confidence",
    "assess_signature",
]


class SignatureHealth:
    """Health verdicts for a signature reading (the validation layer).

    The CBF signature is lossy hardware by design: counters saturate,
    sampling drops accesses, and a frozen or garbled reading silently
    yields a garbage schedule. Consumers (the user-level monitor, the
    allocation policies) classify each reading before trusting it:

    * :data:`OK` — the reading is plausible and fresh;
    * :data:`SUSPECT` — the reading is plausible but its confidence score
      (alias pressure from filter fill) has dropped below the caller's
      confident threshold: usable, but flagged (opt-in, see
      :func:`assess_signature`);
    * :data:`SATURATED` — the filter is (effectively) full: occupancy
      carries no discriminating signal between tasks;
    * :data:`STALE` — the reading has not been refreshed for too long
      (dropped sampling windows, a wedged signature unit);
    * :data:`UNUSABLE` — confidence has collapsed below the caller's
      unusable threshold: the filter is so alias-ridden that occupancy
      and symbiosis are dominated by hash collisions (opt-in);
    * :data:`CORRUPT` — the reading is physically impossible (negative
      or non-finite occupancy/symbiosis, occupancy beyond capacity).
    """

    OK = "ok"
    SUSPECT = "suspect"
    SATURATED = "saturated"
    STALE = "stale"
    UNUSABLE = "unusable"
    CORRUPT = "corrupt"

    #: Every verdict, worst first (the order degradation reports sort by).
    ALL = (CORRUPT, UNUSABLE, STALE, SATURATED, SUSPECT, OK)


@dataclass(frozen=True)
class SignatureConfidence:
    """How much discriminating signal a signature reading carries.

    A CBF-style signature degrades gracefully but silently: the fuller
    the filter, the more of its popcount is hash aliasing rather than
    genuine footprint. This summarises that degradation analytically:

    * ``saturation_ratio`` — occupancy over filter capacity, clamped to
      [0, 1]; the fill level driving alias probability.
    * ``alias_pressure`` — probability that an arbitrary address aliases
      into set bits, ``saturation_ratio ** num_hashes`` (the instantaneous
      Bloom false-hit rate at the current fill level).
    * ``score`` — ``1 - alias_pressure``: 1.0 means every set bit is
      attributable, 0.0 means the reading is indistinguishable from a
      full filter.
    """

    score: float
    saturation_ratio: float
    alias_pressure: float


def signature_confidence(
    occupancy: float, capacity: int, num_hashes: int = 1
) -> SignatureConfidence:
    """Confidence of a reading with *occupancy* set bits of *capacity*.

    Pure and total: out-of-range occupancies clamp rather than raise, so
    the function can grade even readings that a separate corruption check
    will reject.
    """
    require_positive(capacity, "capacity")
    require_positive(num_hashes, "num_hashes")
    if not np.isfinite(occupancy):
        ratio = 1.0
    else:
        ratio = min(max(float(occupancy) / capacity, 0.0), 1.0)
    alias_pressure = ratio**num_hashes
    return SignatureConfidence(
        score=1.0 - alias_pressure,
        saturation_ratio=ratio,
        alias_pressure=alias_pressure,
    )


@dataclass(frozen=True)
class HealthReport:
    """Outcome of one :func:`assess_signature` check.

    Parameters
    ----------
    status:
        One of the :class:`SignatureHealth` verdicts.
    reason:
        Human-readable explanation ('' for healthy readings).
    confidence:
        The grading behind a confidence-derived verdict. ``None`` unless
        the caller opted into confidence thresholds — which keeps reports
        from threshold-free callers equal to their pre-confidence shape.
    """

    status: str
    reason: str = ""
    confidence: Optional[SignatureConfidence] = None

    @property
    def ok(self) -> bool:
        """True when the reading can be trusted by an allocation policy."""
        return self.status == SignatureHealth.OK

    @property
    def usable(self) -> bool:
        """True when a policy may still act on the reading (ok or suspect)."""
        return self.status in (SignatureHealth.OK, SignatureHealth.SUSPECT)


def assess_signature(
    occupancy: float,
    symbiosis: Optional[Sequence] = None,
    *,
    capacity: Optional[int] = None,
    saturation_fraction: float = 1.0,
    samples_seen: Optional[int] = None,
    last_samples_seen: Optional[int] = None,
    num_hashes: int = 1,
    confident_threshold: Optional[float] = None,
    unusable_threshold: Optional[float] = None,
) -> HealthReport:
    """Classify one signature reading (ok / suspect / saturated / stale /
    unusable / corrupt).

    Parameters
    ----------
    occupancy:
        RBV/CF popcount reported for the entity.
    symbiosis:
        Optional per-core symbiosis values of the same reading.
    capacity:
        Filter entry count (``SignatureConfig.num_entries``); enables the
        saturation, beyond-capacity, and confidence checks.
    saturation_fraction:
        Occupancy fraction of *capacity* at which the filter is declared
        saturated (1.0 = only an exactly-full filter, the conservative
        default that cannot misfire on healthy workloads).
    samples_seen / last_samples_seen:
        Sample counters from the current and previous observation; equal
        values mean no fresh sample arrived in between (stale). Pass
        ``None`` to skip the staleness check.
    num_hashes:
        Hash functions behind the reading (sharpens the alias-pressure
        estimate; only used by the confidence checks).
    confident_threshold / unusable_threshold:
        Opt-in confidence gates (both require *capacity*). A reading whose
        confidence score falls below ``confident_threshold`` is graded
        :data:`SignatureHealth.SUSPECT`; below ``unusable_threshold`` it is
        :data:`SignatureHealth.UNUSABLE`. With both ``None`` (the default)
        no confidence is computed and reports are identical to the
        pre-confidence behaviour.

    Checks are ordered worst-first: a corrupt reading is reported as
    corrupt even if it would also count as saturated, and an unusable
    confidence outranks staleness/saturation.
    """
    if confident_threshold is not None and unusable_threshold is not None:
        if unusable_threshold > confident_threshold:
            raise ConfigurationError(
                f"unusable_threshold {unusable_threshold} must not exceed "
                f"confident_threshold {confident_threshold}"
            )
    confidence: Optional[SignatureConfidence] = None
    if capacity is not None and (
        confident_threshold is not None or unusable_threshold is not None
    ):
        confidence = signature_confidence(occupancy, capacity, num_hashes)
    if not np.isfinite(occupancy) or occupancy < 0:
        return HealthReport(
            SignatureHealth.CORRUPT,
            f"occupancy {occupancy!r} is impossible",
            confidence,
        )
    if symbiosis is not None:
        values = np.asarray(symbiosis, dtype=np.float64)
        if not np.all(np.isfinite(values)) or (values < 0).any():
            return HealthReport(
                SignatureHealth.CORRUPT,
                "symbiosis vector contains negative or non-finite entries",
                confidence,
            )
    if capacity is not None and occupancy > capacity:
        return HealthReport(
            SignatureHealth.CORRUPT,
            f"occupancy {occupancy:g} exceeds filter capacity {capacity}",
            confidence,
        )
    if (
        confidence is not None
        and unusable_threshold is not None
        and confidence.score < unusable_threshold
    ):
        return HealthReport(
            SignatureHealth.UNUSABLE,
            f"confidence {confidence.score:.3f} < unusable threshold "
            f"{unusable_threshold:g} (alias pressure "
            f"{confidence.alias_pressure:.3f})",
            confidence,
        )
    if (
        samples_seen is not None
        and last_samples_seen is not None
        and samples_seen <= last_samples_seen
    ):
        return HealthReport(
            SignatureHealth.STALE,
            f"no fresh sample since the last check ({samples_seen} seen)",
            confidence,
        )
    if capacity is not None and occupancy >= saturation_fraction * capacity:
        return HealthReport(
            SignatureHealth.SATURATED,
            f"occupancy {occupancy:g} >= {saturation_fraction:.0%} "
            f"of {capacity} entries",
            confidence,
        )
    if (
        confidence is not None
        and confident_threshold is not None
        and confidence.score < confident_threshold
    ):
        return HealthReport(
            SignatureHealth.SUSPECT,
            f"confidence {confidence.score:.3f} < confident threshold "
            f"{confident_threshold:g} (alias pressure "
            f"{confidence.alias_pressure:.3f})",
            confidence,
        )
    return HealthReport(SignatureHealth.OK, confidence=confidence)


def _next_power_of_two(n: int) -> int:
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class SignatureConfig:
    """Geometry and behaviour of a :class:`SignatureUnit`.

    Parameters
    ----------
    num_cores:
        Number of cores sharing the monitored cache.
    num_sets, ways:
        Geometry of the monitored cache; the paper sizes the filter
        structures to the number of cache lines.
    counter_bits:
        CBF counter width ``L`` (3 in the paper's overhead analysis).
    num_hashes:
        Hash functions per address; the paper uses 1 (Section 3.1) and
        argues more would saturate the filters (Section 5.3).
    hash_kind:
        ``'xor'``, ``'xor_inverse_reverse'``, ``'modulo'``, ``'presence'``
        or ``'presence_sticky'`` (Section 5.3's schemes). Plain
        ``presence`` clears a slot's bit when its line is evicted (exact
        per-core residency); ``presence_sticky`` reproduces the paper's
        evaluated variant, whose bits only accumulate — it "gets saturated
        quite often for processes that heavily use the cache" and conveys
        no scheduling signal.
    sampling_denominator:
        Set-sampling ratio denominator (Section 5.4); 4 = 25% sampling.
    """

    num_cores: int
    num_sets: int
    ways: int
    counter_bits: int = 3
    num_hashes: int = 1
    hash_kind: str = "xor"
    sampling_denominator: int = 1

    def __post_init__(self) -> None:
        require_positive(self.num_cores, "num_cores")
        require_power_of_two(self.num_sets, "num_sets")
        require_positive(self.ways, "ways")
        require_positive(self.counter_bits, "counter_bits")
        require_positive(self.num_hashes, "num_hashes")
        if self.hash_kind in ("presence", "presence_sticky") and self.num_hashes != 1:
            raise ConfigurationError("presence indexing is incompatible with k > 1")

    @property
    def sampler(self) -> SetSampler:
        """The set sampler implied by the sampling denominator."""
        return SetSampler(self.num_sets, self.sampling_denominator)

    @property
    def tracked_lines(self) -> int:
        """Number of cache lines the unit observes after sampling."""
        return (self.num_sets // self.sampling_denominator) * self.ways

    @property
    def num_entries(self) -> int:
        """Filter/counter array size.

        Equal to the tracked line count, rounded up to a power of two for
        the XOR-family hashes (which fold into an index of whole bits).
        """
        lines = self.tracked_lines
        if self.hash_kind in ("xor", "xor_inverse_reverse") and not is_power_of_two(
            lines
        ):
            return _next_power_of_two(lines)
        return lines


@dataclass
class SignatureStats:
    """Counters describing signature-unit activity and fidelity."""

    fills_tracked: int = 0
    evictions_tracked: int = 0
    fills_ignored: int = 0
    evictions_ignored: int = 0
    saturation_events: int = 0
    underflow_events: int = 0
    context_switches: int = 0


class SignatureUnit:
    """Split-CBF signature hardware attached to one shared cache."""

    def __init__(self, config: SignatureConfig):
        self.config = config
        self.num_cores = config.num_cores
        self.num_entries = config.num_entries
        self.counter_max = (1 << config.counter_bits) - 1
        self.sampler = config.sampler
        self._presence = config.hash_kind in ("presence", "presence_sticky")
        self._sticky = config.hash_kind == "presence_sticky"
        if self._presence:
            self.hashes: List[HashFunction] = []
        else:
            self.hashes = make_hash_family(
                config.hash_kind, self.num_entries, config.num_hashes
            )
        self.counters = np.zeros(self.num_entries, dtype=np.int64)
        # Every core's CF is one row of one bool matrix: a fill batch is
        # one scatter into a row, a zeroed entry clears a whole column.
        self._core_bits = np.zeros((self.num_cores, self.num_entries), dtype=bool)
        self.core_filters = [BitVector._backed_by(row) for row in self._core_bits]
        self.last_filters = [BitVector(self.num_entries) for _ in range(self.num_cores)]
        self.stats = SignatureStats()
        self._shift = int(np.log2(config.sampling_denominator))
        #: Optional fault injector (see :mod:`repro.faults.injectors`).
        self.injector = None
        self._cbf_events = None
        if (
            config.hash_kind == "xor"
            and config.num_hashes == 1
            and config.sampling_denominator == 1
        ):
            kernels = native.load()
            if kernels is not None:
                ffi = self._ffi = kernels.ffi
                self._cbf_events = kernels.lib.cbf_events
                self._cbf_state = (
                    ffi.from_buffer("int64_t[]", self.counters),
                    ffi.from_buffer("uint8_t[]", self._core_bits),
                    self.num_entries,
                    self.num_cores,
                )
                self._cbf_hash = (
                    self.counter_max,
                    self.hashes[0].index_bits,
                    self.hashes[0].fold_bits,
                )
                self._cbf_clamps = ffi.new("int64_t[2]")

    def attach_injector(self, injector) -> None:
        """Attach a fault injector to this unit (``None`` detaches).

        The injector's ``after_events(unit)`` hook runs after every
        recorded event batch and may mutate counters/filters in place;
        its ``transform_sample(unit, core, sample)`` hook intercepts
        every context-switch sample and may corrupt it or drop it
        (return ``None``). Used by :mod:`repro.faults` to emulate lossy
        or broken signature hardware deterministically.
        """
        self.injector = injector

    # ------------------------------------------------------------------
    # index computation
    # ------------------------------------------------------------------
    def _slot_indices(self, slots: np.ndarray) -> np.ndarray:
        """Compress global (set*ways + way) slots into sampled entry indices."""
        slots = np.asarray(slots, dtype=np.int64)
        ways = self.config.ways
        sets = slots // ways
        way = slots - sets * ways
        return (sets >> self._shift) * ways + way

    def _hash_indices(self, blocks: np.ndarray) -> np.ndarray:
        """Stacked (k, n) hash indices with per-address duplicates masked -1."""
        blocks = np.asarray(blocks, dtype=np.int64)
        idx = np.stack([h.hash_many(blocks) for h in self.hashes], axis=0)
        if len(self.hashes) > 1:
            # Paper: if several hash indices of one address collide, the
            # counter is touched only once -> mask duplicates within columns.
            order = np.sort(idx, axis=0)
            dup_sorted = np.zeros_like(order, dtype=bool)
            dup_sorted[1:] = order[1:] == order[:-1]
            # Map the duplicate flags back to original positions.
            for col in range(idx.shape[1]):
                if dup_sorted[:, col].any():
                    seen = set()
                    for row in range(idx.shape[0]):
                        v = int(idx[row, col])
                        if v in seen:
                            idx[row, col] = -1
                        else:
                            seen.add(v)
        return idx

    def _event_indices(
        self, blocks: np.ndarray, slots: Optional[np.ndarray]
    ) -> np.ndarray:
        """Flattened valid entry indices for a batch of tracked events."""
        if self._presence:
            if slots is None:
                raise SignatureError(
                    "presence indexing requires slot information for every event"
                )
            return self._slot_indices(slots)
        if len(self.hashes) == 1:
            return self.hashes[0].hash_many(blocks)
        flat = self._hash_indices(blocks).ravel()
        return flat[flat >= 0]

    def _sample_filter(
        self, blocks: np.ndarray, slots: Optional[np.ndarray]
    ) -> tuple:
        """Drop events outside the sampled sets; return (blocks, slots, kept)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if self.sampler.denominator == 1:
            return blocks, slots, len(blocks)
        mask = self.sampler.mask(blocks)
        kept = int(mask.sum())
        out_slots = None
        if slots is not None:
            out_slots = np.asarray(slots, dtype=np.int64)[mask]
        return blocks[mask], out_slots, kept

    # ------------------------------------------------------------------
    # event recording (batch)
    # ------------------------------------------------------------------
    def record_fill_batch(
        self,
        core: int,
        blocks: np.ndarray,
        slots: Optional[np.ndarray] = None,
    ) -> None:
        """Record L2 fills caused by misses from *core* (vectorised)."""
        self._check_core(core)
        blocks = np.asarray(blocks, dtype=np.int64)
        if len(blocks) == 0:
            return
        total = len(blocks)
        blocks, slots, kept = self._sample_filter(blocks, slots)
        self.stats.fills_ignored += total - kept
        if kept == 0:
            return
        idx = self._event_indices(blocks, slots)
        self.stats.fills_tracked += kept
        np.add.at(self.counters, idx, 1)
        # Counters stay within [0, counter_max] between batches, so only
        # this batch's entries can have overflowed.
        if self.counters[idx].max() > self.counter_max:
            over = self.counters > self.counter_max
            excess = int((self.counters[over] - self.counter_max).sum())
            self.stats.saturation_events += excess
            self.counters[over] = self.counter_max
        self._core_bits[core][idx] = True

    def record_eviction_batch(
        self,
        blocks: np.ndarray,
        slots: Optional[np.ndarray] = None,
    ) -> None:
        """Record L2 evictions (vectorised).

        A ``presence_sticky`` unit has no clearing path: eviction events
        are counted but otherwise ignored, so its bits saturate exactly as
        the paper describes.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if len(blocks) == 0:
            return
        if self._sticky:
            self.stats.evictions_ignored += len(blocks)
            return
        total = len(blocks)
        blocks, slots, kept = self._sample_filter(blocks, slots)
        self.stats.evictions_ignored += total - kept
        if kept == 0:
            return
        idx = self._event_indices(blocks, slots)
        self.stats.evictions_tracked += kept
        np.subtract.at(self.counters, idx, 1)
        remaining = self.counters[idx]
        if remaining.min() < 0:
            under = self.counters < 0
            deficit = int((-self.counters[under]).sum())
            self.stats.underflow_events += deficit
            self.counters[under] = 0
            remaining = self.counters[idx]
        # Clearing a bit twice equals clearing it once: no dedup needed.
        zeroed = idx[remaining == 0]
        if len(zeroed):
            self._core_bits[:, zeroed] = False

    def record_events(
        self,
        core: int,
        fills: np.ndarray,
        fill_slots: Optional[np.ndarray],
        evictions: np.ndarray,
        evict_slots: Optional[np.ndarray],
    ) -> None:
        """Record one cache batch's fill+eviction events, fills first (see
        module docstring).

        To follow the true event order, feed the cache one reference at a
        time and record each access's eviction, then its fill, as two
        calls.

        Presence indexing gets its own vectorised path: a miss's eviction
        and fill hit the *same* entry (the slot), so the generic
        fills-first batching would keep every reused slot's counter above
        zero forever — but because a slot's fill/evict counts commute, its
        end-of-batch state (and owner) is computable without replaying the
        interleaving: a touched slot ends resident iff its counter is
        positive, and then its sole owner is this batch's filling core
        (the cache always evicts the previous occupant before refilling a
        slot).
        """
        if self._cbf_events is not None:
            self._record_events_native(core, fills, evictions)
        elif self._presence:
            self._record_events_presence(core, fills, fill_slots, evictions, evict_slots)
        else:
            self.record_fill_batch(core, fills, fill_slots)
            self.record_eviction_batch(evictions, evict_slots)
        if self.injector is not None:
            self.injector.after_events(self)

    def _record_events_native(
        self, core: int, fills: np.ndarray, evictions: np.ndarray
    ) -> None:
        """The batched hash update in one kernel call (same semantics as
        :meth:`record_fill_batch` then :meth:`record_eviction_batch`)."""
        self._check_core(core)
        fills = np.ascontiguousarray(fills, dtype=np.int64)
        evictions = np.ascontiguousarray(evictions, dtype=np.int64)
        ffi, clamps = self._ffi, self._cbf_clamps
        self._cbf_events(
            *self._cbf_state, core, *self._cbf_hash,
            ffi.from_buffer("int64_t[]", fills), len(fills),
            ffi.from_buffer("int64_t[]", evictions), len(evictions),
            clamps,
        )
        stats = self.stats
        stats.fills_tracked += len(fills)
        stats.evictions_tracked += len(evictions)
        stats.saturation_events += clamps[0]
        stats.underflow_events += clamps[1]

    def _record_events_presence(
        self,
        core: int,
        fills: np.ndarray,
        fill_slots: Optional[np.ndarray],
        evictions: np.ndarray,
        evict_slots: Optional[np.ndarray],
    ) -> None:
        """Vectorised exact presence update for one cache batch."""
        self._check_core(core)
        fills = np.asarray(fills, dtype=np.int64)
        evictions = np.asarray(evictions, dtype=np.int64)
        if len(fills) == 0 and len(evictions) == 0:
            return
        if (len(fills) and fill_slots is None) or (
            len(evictions) and evict_slots is None
        ):
            raise SignatureError(
                "presence indexing requires slot information for every event"
            )
        # Sampling: filter each event list by its block's set.
        total_fills, total_evicts = len(fills), len(evictions)
        fills, fill_slots, kept_f = self._sample_filter(fills, fill_slots)
        evictions, evict_slots, kept_e = self._sample_filter(
            evictions, evict_slots
        )
        self.stats.fills_ignored += total_fills - kept_f
        self.stats.evictions_ignored += total_evicts - kept_e
        fill_idx = (
            self._slot_indices(fill_slots)
            if fill_slots is not None and kept_f
            else np.empty(0, dtype=np.int64)
        )
        evict_idx = (
            self._slot_indices(evict_slots)
            if evict_slots is not None and kept_e and not self._sticky
            else np.empty(0, dtype=np.int64)
        )
        self.stats.fills_tracked += len(fill_idx)
        if self._sticky:
            self.stats.evictions_ignored += kept_e
        else:
            self.stats.evictions_tracked += len(evict_idx)
        # Fill/evict counts commute per slot: apply both, then resolve the
        # end state of every touched slot.
        np.add.at(self.counters, fill_idx, 1)
        if self._sticky:
            np.minimum(self.counters, self.counter_max, out=self.counters)
        if len(evict_idx):
            np.subtract.at(self.counters, evict_idx, 1)
        touched = np.unique(np.concatenate([fill_idx, evict_idx]))
        if len(touched) == 0:
            return
        end_state = self.counters[touched]
        dead = touched[end_state <= 0]
        live = touched[end_state > 0]
        if len(dead):
            self.counters[dead] = 0
            self._core_bits[:, dead] = False
        if len(live):
            # Live touched slots belong exclusively to this batch's filler.
            live_filled = np.intersect1d(live, fill_idx, assume_unique=False)
            if not self._sticky:
                self._core_bits[:, live_filled] = False
            self._core_bits[core][live_filled] = True

    # ------------------------------------------------------------------
    # context switches and queries
    # ------------------------------------------------------------------
    def on_context_switch(self, core: int) -> Optional[SignatureSample]:
        """Compute the outgoing entity's sample, then re-snapshot the LF.

        With a fault injector attached the sample may be corrupted or
        dropped entirely (``None``) — emulating garbled signature words
        and lost sampling windows respectively. Consumers must treat a
        ``None`` sample as "no observation this switch".
        """
        self._check_core(core)
        rbv = running_bit_vector(self.core_filters[core], self.last_filters[core])
        occupancy = rbv.popcount()
        sym = symbiosis_vector(rbv, self.core_filters)
        self.last_filters[core].load_from(self.core_filters[core])
        self.stats.context_switches += 1
        sample = SignatureSample(core=core, occupancy=occupancy, symbiosis=sym)
        if self.injector is not None:
            sample = self.injector.transform_sample(self, core, sample)
        return sample

    def peek_rbv(self, core: int) -> BitVector:
        """Current RBV of *core* without snapshotting (debug/inspection)."""
        self._check_core(core)
        return running_bit_vector(self.core_filters[core], self.last_filters[core])

    def core_occupancy(self, core: int) -> int:
        """popcount of a core's CF — its share of the tracked footprint."""
        self._check_core(core)
        return self.core_filters[core].popcount()

    def total_occupancy(self) -> int:
        """Number of non-zero counters — overall tracked footprint."""
        return int(np.count_nonzero(self.counters))

    def reset(self) -> None:
        """Clear all counters, filters and statistics."""
        self.counters.fill(0)
        self._core_bits.fill(False)
        for lf in self.last_filters:
            lf.zero()
        self.stats = SignatureStats()

    def state_bits(self) -> int:
        """Total hardware state in bits (counters + CFs + LFs)."""
        return self.num_entries * (
            self.config.counter_bits + 2 * self.num_cores
        )

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise SignatureError(
                f"core {core} out of range for {self.num_cores}-core unit"
            )

    def __repr__(self) -> str:
        return (
            f"SignatureUnit(cores={self.num_cores}, entries={self.num_entries}, "
            f"kind={self.config.hash_kind!r}, sampling=1/{self.sampler.denominator})"
        )
