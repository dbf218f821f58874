"""Tests for cache geometry/config and the paper's machine presets."""

import pytest

from repro.cache.config import CacheGeometry, core2duo_l2, p4xeon_l2, tiny_cache
from repro.errors import ConfigurationError, GeometryError


class TestCacheGeometry:
    def test_derived_quantities(self):
        g = CacheGeometry(size_bytes=4 * 1024 * 1024, line_bytes=64, ways=16)
        assert g.num_lines == 65536
        assert g.num_sets == 4096
        assert g.line_bits == 6

    def test_block_of(self):
        g = CacheGeometry(size_bytes=64 * 1024, line_bytes=64, ways=8)
        assert g.block_of(0) == 0
        assert g.block_of(63) == 0
        assert g.block_of(64) == 1
        assert g.block_of(1000) == 15

    def test_set_of_block(self):
        g = CacheGeometry(size_bytes=64 * 1024, line_bytes=64, ways=8)  # 128 sets
        assert g.set_of_block(0) == 0
        assert g.set_of_block(127) == 127
        assert g.set_of_block(128) == 0

    def test_rejects_indivisible_size(self):
        with pytest.raises(GeometryError):
            CacheGeometry(size_bytes=1000, line_bytes=64, ways=8)

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=64 * 48 * 8, line_bytes=48, ways=8)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=3 * 64 * 8, line_bytes=64, ways=8)

    def test_str(self):
        assert str(core2duo_l2().geometry) == "4096KB/16-way/64B"


class TestPresets:
    def test_core2duo_matches_paper(self):
        # "4MB 16-way shared L2", 64-byte lines (Section 5.4 overhead calc).
        cfg = core2duo_l2()
        assert cfg.geometry.size_bytes == 4 * 1024 * 1024
        assert cfg.geometry.ways == 16
        assert cfg.geometry.line_bytes == 64
        assert cfg.geometry.num_lines == 65536

    def test_p4xeon_matches_paper(self):
        # "private 2MB 8-way L2".
        cfg = p4xeon_l2()
        assert cfg.geometry.size_bytes == 2 * 1024 * 1024
        assert cfg.geometry.ways == 8

    def test_tiny_cache_figure1_shape(self):
        # Figure 1 uses an 8-set direct-mapped cache.
        cfg = tiny_cache(sets=8, ways=1)
        assert cfg.geometry.num_sets == 8
        assert cfg.geometry.ways == 1
