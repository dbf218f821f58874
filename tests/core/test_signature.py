"""Tests for the split-CBF SignatureUnit (paper Section 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import SignatureConfig, SignatureUnit
from repro.errors import ConfigurationError, SignatureError


def make_unit(**kwargs):
    defaults = dict(num_cores=2, num_sets=64, ways=4, counter_bits=8)
    defaults.update(kwargs)
    return SignatureUnit(SignatureConfig(**defaults))


class TestConfig:
    def test_entries_default_to_line_count(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=4)
        assert cfg.tracked_lines == 256
        assert cfg.num_entries == 256

    def test_sampling_shrinks_entries(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=4, sampling_denominator=4)
        assert cfg.tracked_lines == 64
        assert cfg.num_entries == 64

    def test_non_pow2_lines_rounded_for_xor(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=12)
        assert cfg.tracked_lines == 768
        assert cfg.num_entries == 1024

    def test_non_pow2_lines_exact_for_modulo(self):
        cfg = SignatureConfig(num_cores=2, num_sets=64, ways=12, hash_kind="modulo")
        assert cfg.num_entries == 768

    def test_presence_with_multiple_hashes_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureConfig(
                num_cores=2, num_sets=64, ways=4, hash_kind="presence", num_hashes=2
            )

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureConfig(num_cores=2, num_sets=63, ways=4)


class TestFillEvict:
    def test_fill_sets_cf_of_requesting_core_only(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([123]))
        assert unit.core_occupancy(0) == 1
        assert unit.core_occupancy(1) == 0

    def test_fill_increments_counter(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([123]))
        assert unit.total_occupancy() == 1

    def test_eviction_to_zero_clears_all_cfs(self):
        unit = make_unit()
        # Both cores touch the same block (e.g. after line migration).
        unit.record_fill_batch(0, np.array([99]))
        unit.record_fill_batch(1, np.array([99]))
        unit.record_eviction_batch(np.array([99]))
        unit.record_eviction_batch(np.array([99]))
        assert unit.core_occupancy(0) == 0
        assert unit.core_occupancy(1) == 0

    def test_eviction_above_zero_keeps_cf_bits(self):
        # Paper's documented inaccuracy: the CF bit survives until the
        # counter reaches zero, even if this core's line left long ago.
        unit = make_unit()
        unit.record_fill_batch(0, np.array([99]))
        unit.record_fill_batch(1, np.array([99]))
        unit.record_eviction_batch(np.array([99]))
        assert unit.core_occupancy(0) == 1
        assert unit.core_occupancy(1) == 1

    def test_empty_batches_noop(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([], dtype=np.int64))
        unit.record_eviction_batch(np.array([], dtype=np.int64))
        assert unit.total_occupancy() == 0

    def test_invalid_core_raises(self):
        unit = make_unit()
        with pytest.raises(SignatureError):
            unit.record_fill_batch(5, np.array([1]))

    def test_underflow_counted_and_clamped(self):
        unit = make_unit()
        unit.record_eviction_batch(np.array([42]))
        assert unit.stats.underflow_events == 1
        assert (unit.counters >= 0).all()

    def test_saturation_counted_and_clamped(self):
        unit = make_unit(counter_bits=1)
        block = np.array([7])
        unit.record_fill_batch(0, block)
        unit.record_fill_batch(0, block)
        assert unit.stats.saturation_events == 1
        assert unit.counters.max() == 1


class TestContextSwitch:
    def test_rbv_captures_new_bits_only(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([1, 2, 3]))
        unit.on_context_switch(0)  # snapshot
        unit.record_fill_batch(0, np.array([100, 200]))
        sample = unit.on_context_switch(0)
        assert sample.occupancy == 2

    def test_first_switch_sees_everything(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([1, 2, 3]))
        assert unit.on_context_switch(0).occupancy == 3

    def test_symbiosis_against_other_core(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([1, 2, 3, 4]))
        unit.record_fill_batch(1, np.array([1000, 2000]))
        sample = unit.on_context_switch(0)
        # RBV(core0) has 4 bits; CF(core1) has 2 disjoint bits -> XOR = 6.
        assert sample.symbiosis[1] == 6
        # Against its own CF the RBV is identical (first switch) -> XOR = 0.
        assert sample.symbiosis[0] == 0

    def test_lf_snapshot_advances(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([5]))
        unit.on_context_switch(0)
        # No new activity: RBV empty now.
        assert unit.on_context_switch(0).occupancy == 0

    def test_peek_rbv_does_not_snapshot(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([5]))
        assert unit.peek_rbv(0).popcount() == 1
        assert unit.peek_rbv(0).popcount() == 1  # unchanged
        assert unit.on_context_switch(0).occupancy == 1

    def test_switch_counts(self):
        unit = make_unit()
        unit.on_context_switch(0)
        unit.on_context_switch(1)
        assert unit.stats.context_switches == 2

    def test_invalid_core(self):
        unit = make_unit()
        with pytest.raises(SignatureError):
            unit.on_context_switch(9)


class TestPresenceMode:
    def test_requires_slots(self):
        unit = make_unit(hash_kind="presence")
        with pytest.raises(SignatureError):
            unit.record_fill_batch(0, np.array([1]))

    def test_slot_identity_mapping(self):
        unit = make_unit(hash_kind="presence")
        unit.record_fill_batch(0, np.array([111]), slots=np.array([37]))
        assert unit.core_filters[0].test(37)

    def test_fill_then_evict_slot_roundtrip(self):
        unit = make_unit(hash_kind="presence")
        unit.record_fill_batch(0, np.array([111]), slots=np.array([37]))
        unit.record_eviction_batch(np.array([111]), slots=np.array([37]))
        assert unit.core_occupancy(0) == 0

    def test_no_aliasing(self):
        # Presence bits are exact: N distinct slots -> N bits.
        unit = make_unit(hash_kind="presence")
        slots = np.arange(100)
        unit.record_fill_batch(0, np.arange(100) + 5000, slots=slots)
        assert unit.core_occupancy(0) == 100

    def test_sampled_presence_compresses_slots(self):
        unit = make_unit(hash_kind="presence", sampling_denominator=4)
        # Block in set 0 (sampled), slot = set*ways + way = 0*4+2.
        unit.record_fill_batch(0, np.array([0]), slots=np.array([2]))
        assert unit.core_filters[0].test(2)
        # Block in set 1 (not sampled) is ignored entirely.
        unit.record_fill_batch(0, np.array([1]), slots=np.array([6]))
        assert unit.core_occupancy(0) == 1
        assert unit.stats.fills_ignored == 1


class TestSampling:
    def test_unsampled_blocks_ignored(self):
        unit = make_unit(sampling_denominator=4)
        # set index = block & 63; block 1 -> set 1, unsampled.
        unit.record_fill_batch(0, np.array([1]))
        assert unit.total_occupancy() == 0
        assert unit.stats.fills_ignored == 1

    def test_sampled_blocks_tracked(self):
        unit = make_unit(sampling_denominator=4)
        unit.record_fill_batch(0, np.array([64]))  # set 0, sampled
        assert unit.total_occupancy() == 1
        assert unit.stats.fills_tracked == 1

    def test_eviction_sampling_symmetric(self):
        unit = make_unit(sampling_denominator=4)
        unit.record_fill_batch(0, np.array([64]))
        unit.record_eviction_batch(np.array([64]))
        assert unit.total_occupancy() == 0
        unit.record_eviction_batch(np.array([1]))  # unsampled: ignored
        assert unit.stats.underflow_events == 0


class TestMultipleHashes:
    def test_k2_sets_up_to_two_bits(self):
        unit = make_unit(num_hashes=2)
        unit.record_fill_batch(0, np.array([12345]))
        assert 1 <= unit.core_occupancy(0) <= 2

    def test_k2_fill_evict_roundtrip(self):
        unit = make_unit(num_hashes=2)
        blocks = np.arange(50) * 131
        unit.record_fill_batch(0, blocks)
        unit.record_eviction_batch(blocks)
        assert unit.total_occupancy() == 0
        assert unit.stats.underflow_events == 0

    def test_more_hashes_saturate_filter_faster(self):
        # Section 5.3's rationale for k=1.
        blocks = np.random.default_rng(5).integers(0, 1 << 30, 300)
        k1 = make_unit(num_hashes=1)
        k3 = make_unit(num_hashes=3)
        k1.record_fill_batch(0, blocks)
        k3.record_fill_batch(0, blocks)
        assert k3.core_occupancy(0) > k1.core_occupancy(0)


class TestHousekeeping:
    def test_reset(self):
        unit = make_unit()
        unit.record_fill_batch(0, np.array([1, 2]))
        unit.on_context_switch(0)
        unit.reset()
        assert unit.total_occupancy() == 0
        assert unit.stats.context_switches == 0
        assert unit.core_occupancy(0) == 0

    def test_state_bits(self):
        unit = make_unit(counter_bits=3)
        assert unit.state_bits() == 256 * (3 + 4)

    def test_repr(self):
        assert "SignatureUnit" in repr(make_unit())


class TestSignatureProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 25) - 1), max_size=80),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_cf_subset_of_nonzero_counters(self, blocks, core):
        unit = make_unit()
        unit.record_fill_batch(core, np.asarray(blocks, dtype=np.int64))
        cf_bits = set(unit.core_filters[core].to_indices().tolist())
        nonzero = set(np.nonzero(unit.counters)[0].tolist())
        assert cf_bits <= nonzero

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 25) - 1), max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_fill_evict_roundtrip_clears_everything(self, blocks):
        unit = make_unit()
        arr = np.asarray(blocks, dtype=np.int64)
        unit.record_fill_batch(0, arr)
        unit.record_eviction_batch(arr)
        assert unit.total_occupancy() == 0
        assert unit.core_occupancy(0) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 25) - 1), max_size=60),
        st.lists(st.integers(min_value=0, max_value=(1 << 25) - 1), max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_by_rbv_size(self, batch1, batch2):
        unit = make_unit()
        unit.record_fill_batch(0, np.asarray(batch1, dtype=np.int64))
        unit.on_context_switch(0)
        unit.record_fill_batch(0, np.asarray(batch2, dtype=np.int64))
        sample = unit.on_context_switch(0)
        assert 0 <= sample.occupancy <= len(set(batch2))
