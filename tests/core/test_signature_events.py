"""Tests for signature event replay: cache events -> signature semantics.

The simulator records each cache batch fills first. Here "exact" names
the true event order, which the tests rebuild through the same code: the
cache is fed one reference at a time, and each access's eviction and
then its fill are recorded as two ``record_events`` calls. Presence
units must match that order exactly, and batched hash units must stay
faithful to it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig, SignatureUnit


def make_unit(sets=16, ways=2, cores=2, **kw):
    return SignatureUnit(
        SignatureConfig(
            num_cores=cores, num_sets=sets, ways=ways, counter_bits=8, **kw
        )
    )


def make_cache(cores):
    return SetAssociativeCache(tiny_cache(sets=16, ways=2), num_cores=cores)


def feed_cache_events(unit, cache, core, blocks):
    """One cache batch, recorded fills first (what the simulator runs)."""
    r = cache.access_batch(core, blocks)
    unit.record_events(core, r.fills, r.fill_slots, r.evictions, r.evict_slots)
    return r


def feed_in_order(unit, cache, core, blocks):
    """The true event order: per reference, the eviction, then the fill."""
    for block in blocks:
        r = cache.access_batch(core, np.asarray([block]))
        unit.record_events(core, [], None, r.evictions, r.evict_slots)
        unit.record_events(core, r.fills, r.fill_slots, [], None)


class TestExactReplay:
    def test_exact_replay_matches_per_event_feed(self):
        """In the true event order each counter counts the resident lines
        hashing to it; on one core with unclamped counters the fills-first
        batch of the same trace ends in the same state."""
        blocks = np.random.default_rng(0).integers(0, 256, 800)

        cache_a, unit_a = make_cache(1), make_unit(cores=1)
        feed_cache_events(unit_a, cache_a, 0, blocks)

        cache_b, unit_b = make_cache(1), make_unit(cores=1)
        feed_in_order(unit_b, cache_b, 0, blocks)

        resident = unit_b.hashes[0].hash_many(cache_b.resident_blocks())
        expected = np.bincount(resident, minlength=unit_b.num_entries)
        assert np.array_equal(unit_b.counters, expected)
        assert unit_b.core_filters[0].popcount() == np.count_nonzero(expected)
        assert np.array_equal(unit_a.counters, unit_b.counters)
        assert unit_a.core_filters[0] == unit_b.core_filters[0]

    def test_counters_track_cache_multiset(self):
        """With a collision-free mapping, counters mirror residency."""
        cache = make_cache(1)
        unit = make_unit(cores=1, hash_kind="presence")
        blocks = np.random.default_rng(1).integers(0, 128, 500)
        feed_in_order(unit, cache, 0, blocks)
        # In presence mode each slot's counter is exactly line validity.
        assert unit.total_occupancy() == cache.footprint_lines()
        assert unit.stats.underflow_events == 0
        assert unit.stats.saturation_events == 0

    def test_presence_cf_equals_true_residency(self):
        cache = make_cache(2)
        unit = make_unit(hash_kind="presence")
        rng = np.random.default_rng(2)
        feed_in_order(unit, cache, 0, rng.integers(0, 64, 300))
        feed_in_order(unit, cache, 1, rng.integers(64, 128, 300))
        occupancy = cache.occupancy_by_core()
        assert unit.core_occupancy(0) == occupancy[0]
        assert unit.core_occupancy(1) == occupancy[1]


class TestBatchedFidelity:
    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_batched_counters_match_exact_totals(self, seed):
        """Counter *sums* are order-independent; totals must agree exactly."""
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 512, 600)
        exact_unit, fast_unit = make_unit(cores=1), make_unit(cores=1)
        feed_in_order(exact_unit, make_cache(1), 0, blocks)
        feed_cache_events(fast_unit, make_cache(1), 0, blocks)
        assert exact_unit.counters.sum() == fast_unit.counters.sum()
        # Per-entry counters agree too (increments/decrements commute when
        # no clamping occurs with 8-bit counters at this scale).
        assert np.array_equal(exact_unit.counters, fast_unit.counters)

    def test_batched_cf_close_to_exact(self):
        blocks = np.random.default_rng(3).integers(0, 512, 3000)
        exact_unit, fast_unit = make_unit(cores=1), make_unit(cores=1)
        feed_in_order(exact_unit, make_cache(1), 0, blocks)
        feed_cache_events(fast_unit, make_cache(1), 0, blocks)
        occ_exact = exact_unit.core_occupancy(0)
        occ_fast = fast_unit.core_occupancy(0)
        assert abs(occ_exact - occ_fast) <= max(2, 0.1 * occ_exact)


class TestPresenceVectorisedPath:
    @given(st.integers(min_value=0, max_value=9), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_vectorised_presence_equals_exact_replay(self, seed, sticky):
        """The commuting-counts shortcut must match the true order exactly."""
        kind = "presence_sticky" if sticky else "presence"
        rng = np.random.default_rng(seed)
        fast_cache, exact_cache = make_cache(2), make_cache(2)
        fast, exact = make_unit(hash_kind=kind), make_unit(hash_kind=kind)
        for _ in range(10):
            for core in (0, 1):
                blocks = rng.integers(core * 10_000, core * 10_000 + 200, 300)
                feed_cache_events(fast, fast_cache, core, blocks)
                feed_in_order(exact, exact_cache, core, blocks)
        for c in (0, 1):
            assert fast.core_filters[c] == exact.core_filters[c]
        if not sticky:
            assert np.array_equal(fast.counters, exact.counters)

    def test_presence_matches_true_residency_through_contention(self):
        cache = make_cache(2)
        unit = make_unit(hash_kind="presence")
        rng = np.random.default_rng(3)
        for _ in range(30):
            for core in (0, 1):
                blocks = rng.integers(core * 10_000, core * 10_000 + 100, 200)
                feed_cache_events(unit, cache, core, blocks)
        occupancy = cache.occupancy_by_core()
        assert unit.core_occupancy(0) == occupancy[0]
        assert unit.core_occupancy(1) == occupancy[1]


class TestSampledEventFeed:
    def test_sampled_unit_sees_subset(self):
        full = make_unit(cores=1)
        sampled = make_unit(cores=1, sampling_denominator=4)
        blocks = np.random.default_rng(4).integers(0, 256, 400)
        for unit in (full, sampled):
            feed_in_order(unit, make_cache(1), 0, blocks)
        assert sampled.stats.fills_tracked < full.stats.fills_tracked
        assert sampled.stats.fills_tracked + sampled.stats.fills_ignored == (
            full.stats.fills_tracked
        )
