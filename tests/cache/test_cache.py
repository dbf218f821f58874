"""Tests for the set-associative cache, including a reference-model check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.errors import ConfigurationError
from tests.engines import available_engines, on_engine


def small_cache(sets=4, ways=2, cores=2):
    return SetAssociativeCache(tiny_cache(sets=sets, ways=ways), num_cores=cores)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        hit, evicted = c.access_one(0, 5)
        assert not hit and evicted is None
        hit, evicted = c.access_one(0, 5)
        assert hit and evicted is None

    def test_conflict_eviction(self):
        c = small_cache(sets=4, ways=1)
        c.access_one(0, 0)
        hit, evicted = c.access_one(0, 4)  # same set (block % 4 == 0)
        assert not hit
        assert evicted == 0
        assert not c.contains(0)
        assert c.contains(4)

    def test_lru_order_within_set(self):
        c = small_cache(sets=1, ways=2)
        c.access_one(0, 0)
        c.access_one(0, 1)
        c.access_one(0, 0)  # 0 is now MRU, 1 is LRU
        _, evicted = c.access_one(0, 2)
        assert evicted == 1

    def test_fill_slots_are_stable_physical_ways(self):
        c = small_cache(sets=1, ways=2)
        r1 = c.access_batch(0, np.array([0]))
        r2 = c.access_batch(0, np.array([1]))
        assert r1.fill_slots[0] != r2.fill_slots[0]
        # Evicting block 0 (LRU) must free slot r1 used.
        r3 = c.access_batch(0, np.array([2]))
        assert r3.evict_slots[0] == r1.fill_slots[0]
        assert r3.fill_slots[0] == r1.fill_slots[0]

    def test_invalid_core_rejected(self):
        c = small_cache(cores=2)
        with pytest.raises(ConfigurationError):
            c.access_batch(7, np.array([0]))

    def test_stats_accumulate(self):
        c = small_cache()
        c.access_batch(0, np.array([0, 0, 1]))
        c.access_batch(1, np.array([2]))
        assert c.stats.hits[0] == 1
        assert c.stats.misses[0] == 2
        assert c.stats.misses[1] == 1
        assert c.stats.miss_rate() == pytest.approx(3 / 4)

    def test_reset(self):
        c = small_cache()
        c.access_batch(0, np.array([0, 1, 2]))
        c.reset()
        assert c.footprint_lines() == 0
        assert c.stats.total_accesses == 0
        assert not c.contains(0)

    def test_footprint_and_residents(self):
        c = small_cache(sets=4, ways=2)
        c.access_batch(0, np.array([0, 1, 2]))
        assert c.footprint_lines() == 3
        assert sorted(c.resident_blocks().tolist()) == [0, 1, 2]

    def test_occupancy_by_core_attribution(self):
        c = small_cache(sets=4, ways=2, cores=2)
        c.access_batch(0, np.array([0, 1]))
        c.access_batch(1, np.array([2, 3]))
        assert c.occupancy_by_core().tolist() == [2, 2]

    def test_empty_batch(self):
        c = small_cache()
        r = c.access_batch(0, np.array([], dtype=np.int64))
        assert r.hits == 0 and r.misses == 0 and r.accesses == 0


class TestSharedBehaviour:
    def test_cross_core_hits(self):
        # A block filled by core 0 hits when core 1 touches it (shared L2).
        c = small_cache()
        c.access_one(0, 9)
        hit, _ = c.access_one(1, 9)
        assert hit

    def test_interference_evicts_other_cores_lines(self):
        c = small_cache(sets=1, ways=2, cores=2)
        c.access_batch(0, np.array([0, 1]))
        c.access_batch(1, np.array([2, 3]))  # evicts both of core 0's lines
        assert c.occupancy_by_core().tolist() == [0, 2]


class TestPaperFigure1:
    def test_same_miss_rate_different_footprint(self):
        """Figure 1: two 100%-miss strided patterns with 8x different footprints.

        App A strides over blocks mapping to a single set of an 8-set
        direct-mapped cache; App B touches 4 different sets. Both always
        miss, yet A's footprint is 1 line and B's is 4 lines.
        """
        ca = SetAssociativeCache(tiny_cache(sets=8, ways=1))
        cb = SetAssociativeCache(tiny_cache(sets=8, ways=1))
        # A: conflicting blocks 0, 8, 16, ... (all set 0).
        a_blocks = np.arange(32, dtype=np.int64) * 8
        ra = ca.access_batch(0, a_blocks)
        # B: blocks cycling over sets 0..3 with distinct tags each round.
        b_blocks = np.asarray(
            [8 * round_ + s for round_ in range(8) for s in range(4)], dtype=np.int64
        )
        rb = cb.access_batch(0, b_blocks)
        assert ra.misses == len(a_blocks)  # 100% miss
        assert rb.misses == len(b_blocks)  # 100% miss
        assert ca.footprint_lines() == 1
        assert cb.footprint_lines() == 4


class TestNegativeBlocks:
    """-1 marks an invalid line, so the cache rejects negative blocks,
    on every engine path, before any state moves."""

    def test_cold_cache_rejects_minus_one(self):
        for engine in available_engines():
            with on_engine(engine):
                c = small_cache()
            with pytest.raises(ConfigurationError):
                c.access_batch(0, np.array([-1]))
            assert c.footprint_lines() == 0
            assert c.stats.total_accesses == 0
            assert not c.contains(-1)

    def test_negative_anywhere_in_batch_rejected(self):
        for engine in available_engines():
            with on_engine(engine):
                c = small_cache()
            with pytest.raises(ConfigurationError):
                c.access_batch(0, np.array([3, 7, -5]))
            assert c.footprint_lines() == 0

    def test_rejected_batch_leaves_a_warm_cache_unchanged(self):
        for engine in available_engines():
            with on_engine(engine):
                c = small_cache(sets=2, ways=2)
            c.access_batch(1, np.array([0, 1, 2, 3, 0, 5]))
            before = _state(c)
            # The blocks ahead of the negative ones would hit, fill and
            # evict; the message names the batch's minimum.
            with pytest.raises(
                ConfigurationError,
                match=r"negative block address -9 in access batch",
            ):
                c.access_batch(0, np.array([0, 6, 8, -2, 4, -9, 1]))
            after = _state(c)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            # The next batch carries on from the same clock.
            assert c.access_batch(0, np.array([6])).misses == 1
            assert c._clock == before[3] + 1


def _state(cache):
    """Everything a rejected batch must leave as it was."""
    return (
        cache._tags.copy(), cache._stamps.copy(), cache._tag_owner.copy(),
        cache._clock, cache.stats.total_accesses,
    )


class ReferenceLRUCache:
    """Dict-of-lists reference model for differential testing."""

    def __init__(self, sets, ways):
        self.sets, self.ways = sets, ways
        self.state = {s: [] for s in range(sets)}

    def access(self, block):
        line = self.state[block % self.sets]
        if block in line:
            line.remove(block)
            line.insert(0, block)
            return True, None
        evicted = line.pop() if len(line) == self.ways else None
        line.insert(0, block)
        return False, evicted


class TestDifferentialAgainstReference:
    @given(
        st.integers(min_value=0, max_value=3),  # log2 sets
        st.integers(min_value=1, max_value=4),  # ways
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_hits_and_evictions_match(self, log_sets, ways, blocks):
        sets = 1 << log_sets
        cache = SetAssociativeCache(tiny_cache(sets=sets, ways=ways))
        ref = ReferenceLRUCache(sets, ways)
        for block in blocks:
            hit, evicted = cache.access_one(0, block)
            ref_hit, ref_evicted = ref.access(block)
            assert hit == ref_hit
            assert evicted == ref_evicted

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_singles(self, blocks):
        a = SetAssociativeCache(tiny_cache(sets=8, ways=2))
        b = SetAssociativeCache(tiny_cache(sets=8, ways=2))
        arr = np.asarray(blocks, dtype=np.int64)
        ra = a.access_batch(0, arr)
        hits_b = 0
        evictions_b = []
        for block in blocks:
            hit, evicted = b.access_one(0, block)
            hits_b += hit
            if evicted is not None:
                evictions_b.append(evicted)
        assert ra.hits == hits_b
        assert ra.evictions.tolist() == evictions_b
        assert sorted(a.resident_blocks().tolist()) == sorted(
            b.resident_blocks().tolist()
        )

    @given(st.lists(st.integers(min_value=0, max_value=127), max_size=250))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, blocks):
        c = SetAssociativeCache(tiny_cache(sets=4, ways=2))
        r = c.access_batch(0, np.asarray(blocks, dtype=np.int64))
        # Conservation: every access is a hit or a miss.
        assert r.hits + r.misses == len(blocks)
        # Evictions never exceed fills; footprint = fills - evictions.
        assert len(r.evictions) <= len(r.fills)
        assert c.footprint_lines() == len(r.fills) - len(r.evictions)
        # No duplicates resident.
        res = c.resident_blocks().tolist()
        assert len(res) == len(set(res))
        # Footprint bounded by capacity and by distinct blocks touched.
        assert c.footprint_lines() <= min(8, len(set(blocks)))
