"""Tests for the Bloom-filter hash function family (paper Section 5.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashes import (
    HASH_KINDS,
    ModuloHash,
    XorFoldHash,
    XorInverseReverseHash,
    make_hash,
    make_hash_family,
)
from repro.errors import ConfigurationError

ALL_KINDS = ["xor", "xor_inverse_reverse", "modulo"]


class TestRegistry:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_make_hash(self, kind):
        h = make_hash(kind, 256)
        assert h.kind == kind
        assert h.num_entries == 256

    def test_presence_rejected(self):
        with pytest.raises(ConfigurationError, match="presence"):
            make_hash("presence", 256)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown hash kind"):
            make_hash("fnv", 256)

    def test_hash_kinds_tuple(self):
        assert set(HASH_KINDS) == {
            "xor",
            "xor_inverse_reverse",
            "modulo",
            "presence",
            "presence_sticky",
        }

    def test_family_distinct_salts(self):
        family = make_hash_family("xor", 1024, 3)
        assert [h.salt_index for h in family] == [0, 1, 2]

    def test_family_too_many(self):
        with pytest.raises(ConfigurationError):
            make_hash_family("xor", 1024, 100)

    def test_family_count_positive(self):
        with pytest.raises(ConfigurationError):
            make_hash_family("xor", 1024, 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestCommonBehaviour:
    def test_range(self, kind):
        h = make_hash(kind, 512)
        blocks = np.random.default_rng(0).integers(0, 1 << 40, 2000)
        idx = h.hash_many(blocks)
        assert idx.min() >= 0
        assert idx.max() < 512

    def test_deterministic(self, kind):
        h = make_hash(kind, 512)
        blocks = np.arange(100, dtype=np.int64) * 977
        assert np.array_equal(h.hash_many(blocks), h.hash_many(blocks))

    def test_scalar_matches_vector(self, kind):
        h = make_hash(kind, 256)
        blocks = np.array([0, 1, 63, 4096, (1 << 35) + 17], dtype=np.int64)
        vec = h.hash_many(blocks)
        for b, v in zip(blocks, vec):
            assert h.hash_one(int(b)) == int(v)

    def test_salted_variants_differ(self, kind):
        h0 = make_hash(kind, 4096, salt_index=0)
        h1 = make_hash(kind, 4096, salt_index=1)
        blocks = np.arange(500, dtype=np.int64)
        assert not np.array_equal(h0.hash_many(blocks), h1.hash_many(blocks))

    def test_distribution_covers_filter(self, kind):
        # Random addresses should touch a large fraction of a small filter.
        h = make_hash(kind, 128)
        blocks = np.random.default_rng(1).integers(0, 1 << 40, 5000)
        assert len(np.unique(h.hash_many(blocks))) > 100

    def test_empty_input(self, kind):
        h = make_hash(kind, 128)
        assert h.hash_many(np.array([], dtype=np.int64)).shape == (0,)


class TestXorFold:
    def test_sequential_blocks_spread(self):
        # XOR folding maps consecutive block addresses to distinct indices
        # (low bits pass through) - the property that makes it good for
        # footprint tracking of strided workloads.
        h = XorFoldHash(256)
        idx = h.hash_many(np.arange(256, dtype=np.int64))
        assert len(np.unique(idx)) == 256

    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            XorFoldHash(100)

    def test_rejects_single_entry(self):
        with pytest.raises(ConfigurationError):
            XorFoldHash(1)

    def test_fold_covers_high_bits(self):
        # Addresses differing only above the index width must not all
        # collide onto the same index.
        h = XorFoldHash(256)
        blocks = (np.arange(64, dtype=np.int64) << 8) | 5
        assert len(np.unique(h.hash_many(blocks))) > 1


class TestXorInverseReverse:
    def test_is_permutation_of_xor(self):
        # invert+reverse is a bijection on the index space, so the number of
        # distinct indices must match plain XOR folding.
        blocks = np.random.default_rng(2).integers(0, 1 << 40, 3000)
        xor = XorFoldHash(512).hash_many(blocks)
        xir = XorInverseReverseHash(512).hash_many(blocks)
        assert len(np.unique(xor)) == len(np.unique(xir))

    def test_differs_from_plain_xor(self):
        blocks = np.arange(100, dtype=np.int64)
        xor = XorFoldHash(512).hash_many(blocks)
        xir = XorInverseReverseHash(512).hash_many(blocks)
        assert not np.array_equal(xor, xir)


class TestModulo:
    def test_non_power_of_two_size(self):
        h = ModuloHash(100)
        idx = h.hash_many(np.arange(1000, dtype=np.int64))
        assert idx.min() >= 0 and idx.max() < 100

    def test_identity_below_size_unsalted(self):
        h = ModuloHash(256, salt_index=0)
        blocks = np.arange(256, dtype=np.int64)
        assert np.array_equal(h.hash_many(blocks), blocks)


class TestProperties:
    @given(
        st.sampled_from(ALL_KINDS),
        st.integers(min_value=3, max_value=12),
        st.lists(st.integers(min_value=0, max_value=(1 << 45) - 1), min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_indices_always_in_range(self, kind, log_entries, blocks):
        h = make_hash(kind, 1 << log_entries)
        idx = h.hash_many(np.asarray(blocks, dtype=np.int64))
        assert ((idx >= 0) & (idx < (1 << log_entries))).all()

    @given(st.integers(min_value=0, max_value=(1 << 45) - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_address_same_index(self, block):
        for kind in ALL_KINDS:
            h = make_hash(kind, 1024)
            assert h.hash_one(block) == h.hash_one(block)


def _loop_fold(h, blocks):
    """The per-chunk-masked XOR fold ``XorFoldHash.hash_many`` replaced."""
    u = h._mix(np.asarray(blocks, dtype=np.int64))
    mask = np.uint64(h.num_entries - 1)
    acc = np.zeros(len(u), dtype=np.uint64)
    shift = 0
    while shift < h.fold_bits:
        acc ^= (u >> np.uint64(shift)) & mask
        shift += h.index_bits
    return acc.astype(np.int64)


class TestFoldReference:
    @pytest.mark.parametrize("salt_index", [0, 1, 2])
    @pytest.mark.parametrize("log_entries", range(1, 21))
    def test_hash_many_equals_the_loop_fold(self, log_entries, salt_index):
        h = XorFoldHash(1 << log_entries, salt_index=salt_index)
        rng = np.random.default_rng(log_entries * 3 + salt_index)
        blocks = rng.integers(0, 1 << 63, 500, dtype=np.int64)
        assert h.hash_many(blocks).tobytes() == _loop_fold(h, blocks).tobytes()
