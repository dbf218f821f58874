"""Adversarial generators: preimage math, determinism, attack shape."""

import numpy as np
import pytest

from repro.adversary import (
    AliasingGenerator,
    PhaseFlapGenerator,
    SaturatingGenerator,
    ThrashingGenerator,
    alias_preimages,
)
from repro.core.hashes import XorFoldHash
from repro.core.signature import SignatureConfig, SignatureUnit
from repro.errors import ConfigurationError, WorkloadError

ENTRIES = 1024


class TestAliasPreimages:
    def test_distinct_blocks_fold_to_one_index(self):
        family = alias_preimages(ENTRIES, target_index=37, count=200)
        assert len(np.unique(family)) == 200
        folded = XorFoldHash(ENTRIES).hash_many(family)
        assert set(folded.tolist()) == {37}

    def test_spread_widens_to_a_band(self):
        family = alias_preimages(ENTRIES, 37, 128, spread=4)
        folded = XorFoldHash(ENTRIES).hash_many(family)
        assert set(folded.tolist()) == {37, 38, 39, 40}

    def test_lanes_are_block_disjoint_but_index_identical(self):
        a = alias_preimages(ENTRIES, 37, 100, lane=0)
        b = alias_preimages(ENTRIES, 37, 100, lane=1)
        assert len(np.intersect1d(a, b)) == 0
        hasher = XorFoldHash(ENTRIES)
        assert set(hasher.hash_many(a)) == set(hasher.hash_many(b)) == {37}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_entries=1000, target_index=0, count=4),  # not pow2
            dict(num_entries=ENTRIES, target_index=ENTRIES, count=4),
            dict(num_entries=ENTRIES, target_index=0, count=ENTRIES + 1),
            dict(num_entries=ENTRIES, target_index=0, count=4, lane=-1),
            dict(num_entries=ENTRIES, target_index=0, count=600, lane=1),
            dict(
                num_entries=ENTRIES, target_index=ENTRIES - 1, count=4,
                spread=2,
            ),
            dict(num_entries=1 << 25, target_index=0, count=4),  # fold bits
        ],
    )
    def test_invalid_constructions_are_rejected(self, kwargs):
        # pow2 checks come from the shared validators (ConfigurationError),
        # the construction-specific checks raise WorkloadError.
        with pytest.raises((WorkloadError, ConfigurationError)):
            alias_preimages(
                kwargs.pop("num_entries"),
                kwargs.pop("target_index"),
                kwargs.pop("count"),
                **kwargs,
            )


class TestAliasingGenerator:
    def test_scan_and_hot_present_the_same_filter_image(self):
        scan = AliasingGenerator(ENTRIES, 37, 256, reuse="scan", seed=1)
        hot = AliasingGenerator(ENTRIES, 37, 256, reuse="hot", seed=2)
        hasher = XorFoldHash(ENTRIES)
        for gen in (scan, hot):
            indices = set(hasher.hash_many(gen.next_batch(2048)).tolist())
            assert indices == {37}

    def test_seeded_determinism(self):
        a = AliasingGenerator(ENTRIES, 37, 256, reuse="hot", seed=9)
        b = AliasingGenerator(ENTRIES, 37, 256, reuse="hot", seed=9)
        assert (a.next_batch(512) == b.next_batch(512)).all()

    def test_reset_restarts_the_stream(self):
        gen = AliasingGenerator(ENTRIES, 37, 256, reuse="scan", seed=1)
        first = gen.next_batch(100)
        gen.reset()
        assert (gen.next_batch(100) == first).all()

    def test_scan_reuse_is_a_cyclic_sweep(self):
        gen = AliasingGenerator(ENTRIES, 0, 64, reuse="scan", seed=0)
        batch = gen.next_batch(128)
        assert len(np.unique(batch[:64])) == 64
        assert (batch[:64] == batch[64:]).all()

    def test_rejects_base_block_and_bad_reuse(self):
        with pytest.raises(WorkloadError):
            AliasingGenerator(ENTRIES, 0, 64, base_block=1)
        with pytest.raises(WorkloadError):
            AliasingGenerator(ENTRIES, 0, 64, reuse="zigzag")


class TestSaturatingGenerator:
    def test_region_scales_with_pressure(self):
        gen = SaturatingGenerator(256, pressure=4.0, seed=0)
        assert gen.region_blocks == 1024

    def test_saturates_a_matching_filter(self):
        gen = SaturatingGenerator(256, pressure=4.0, seed=3)
        unit = SignatureUnit(SignatureConfig(num_cores=1, num_sets=64, ways=4))
        assert unit.num_entries == 256
        unit.record_fill_batch(0, np.unique(gen.next_batch(4096)))
        assert unit.total_occupancy() / unit.num_entries > 0.95

    def test_rejects_nonpositive_pressure(self):
        with pytest.raises(WorkloadError):
            SaturatingGenerator(256, pressure=0.0)


class TestThrashingGenerator:
    def test_sweep_is_wider_than_the_cache(self):
        gen = ThrashingGenerator(1024, overshoot=1.25, seed=0)
        batch = gen.next_batch(gen.region_blocks)
        assert gen.region_blocks == 1280
        assert len(np.unique(batch)) == gen.region_blocks

    def test_reuse_distance_equals_the_region(self):
        gen = ThrashingGenerator(64, overshoot=1.5, seed=0)
        batch = gen.next_batch(2 * gen.region_blocks)
        assert (batch[: gen.region_blocks] == batch[gen.region_blocks:]).all()

    def test_overshoot_must_exceed_one(self):
        with pytest.raises(WorkloadError):
            ThrashingGenerator(64, overshoot=1.0)


class TestPhaseFlapGenerator:
    def test_alternates_between_disjoint_regions(self):
        gen = PhaseFlapGenerator(region_blocks=128, period=64, seed=5)
        batch = gen.next_batch(256)
        assert batch[:64].max() < 128
        assert 128 <= batch[64:128].min()
        assert batch[64:128].max() < 256
        assert batch[128:192].max() < 128

    def test_restart_resets_the_phase_clock(self):
        gen = PhaseFlapGenerator(region_blocks=128, period=64, seed=5)
        first = gen.next_batch(200)
        gen.reset()
        assert (gen.next_batch(200) == first).all()
