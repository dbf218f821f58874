"""Batched signature recording against a whole-array-clamp reference.

``SignatureUnit`` clamps saturated and underflowed counters by looking only
at the entries a batch touched, and clears zeroed Core Filter bits without
deduplicating them first. The reference below applies the plain rules —
clamp the whole counter array, ``np.unique`` the zeroed entries, then
clear — to small filters with 1- and 2-bit counters, so batches of many
events saturate and underflow, with and without fault injectors writing
the counters between batches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashes import make_hash_family
from repro.core.signature import SignatureConfig, SignatureStats, SignatureUnit
from repro.faults.injectors import SaturateCountersInjector, ZeroWordsInjector
from repro.utils.bitvec import BitVector

INJECTORS = {
    None: lambda: None,
    "saturate": lambda: SaturateCountersInjector(seed=3),
    "zero": lambda: ZeroWordsInjector(seed=3, fraction=0.25),
}


class ReferenceUnit:
    """Batched split-CBF rules with the whole-array clamp."""

    def __init__(self, config):
        self.num_cores = config.num_cores
        self.num_entries = config.num_entries
        self.counter_max = (1 << config.counter_bits) - 1
        self.hashes = make_hash_family(
            config.hash_kind, self.num_entries, config.num_hashes
        )
        self.counters = np.zeros(self.num_entries, dtype=np.int64)
        self.core_filters = [BitVector(self.num_entries) for _ in range(self.num_cores)]
        self.last_filters = [BitVector(self.num_entries) for _ in range(self.num_cores)]
        self.stats = SignatureStats()

    def _indices(self, blocks):
        # Each address touches each of its distinct hash indices once.
        return np.asarray(
            [i for b in blocks for i in dict.fromkeys(h.hash_one(b) for h in self.hashes)],
            dtype=np.int64,
        )

    def fill(self, core, blocks):
        if not blocks:
            return
        idx = self._indices(blocks)
        self.stats.fills_tracked += len(blocks)
        np.add.at(self.counters, idx, 1)
        over = self.counters > self.counter_max
        if over.any():
            self.stats.saturation_events += int((self.counters[over] - self.counter_max).sum())
            self.counters[over] = self.counter_max
        self.core_filters[core].set_many(idx)

    def evict(self, blocks):
        if not blocks:
            return
        idx = self._indices(blocks)
        self.stats.evictions_tracked += len(blocks)
        np.subtract.at(self.counters, idx, 1)
        under = self.counters < 0
        if under.any():
            self.stats.underflow_events += int((-self.counters[under]).sum())
            self.counters[under] = 0
        zeroed = np.unique(idx[self.counters[idx] == 0])
        for cf in self.core_filters:
            cf.clear_many(zeroed)


blocks = st.lists(st.integers(min_value=0, max_value=63), max_size=40)


class TestBatchedClampMatchesReference:
    @given(
        counter_bits=st.integers(min_value=1, max_value=2),
        num_hashes=st.integers(min_value=1, max_value=2),
        injector=st.sampled_from(sorted(INJECTORS, key=str)),
        batches=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1), blocks, blocks),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_counters_filters_and_stats(
        self, counter_bits, num_hashes, injector, batches
    ):
        config = SignatureConfig(
            num_cores=2, num_sets=4, ways=2, counter_bits=counter_bits,
            num_hashes=num_hashes,
        )
        unit, ref = SignatureUnit(config), ReferenceUnit(config)
        unit.attach_injector(INJECTORS[injector]())
        ref_injector = INJECTORS[injector]()
        for core, fills, evictions in batches:
            unit.record_events(
                core, np.asarray(fills, dtype=np.int64), None,
                np.asarray(evictions, dtype=np.int64), None,
            )
            ref.fill(core, fills)
            ref.evict(evictions)
            if ref_injector is not None:
                ref_injector.after_events(ref)
            assert unit.counters.tolist() == ref.counters.tolist()
            for mine, theirs in zip(unit.core_filters, ref.core_filters):
                assert mine.to_indices().tolist() == theirs.to_indices().tolist()
            assert unit.stats == ref.stats
