"""Tests for TLB and page-fault models (Figure 2 counters)."""

import numpy as np
import pytest

from repro.cache.tlb import TLB, PageFaultTracker


class TestTLB:
    def test_cold_misses_then_hits(self):
        tlb = TLB(entries=4)
        assert tlb.access_pages(np.array([1, 2, 3])) == 3
        assert tlb.access_pages(np.array([1, 2, 3])) == 0
        assert tlb.hits == 3 and tlb.misses == 3

    def test_capacity_eviction_lru(self):
        tlb = TLB(entries=2)
        tlb.access_pages(np.array([1, 2]))
        tlb.access_pages(np.array([1]))      # 2 is now LRU
        tlb.access_pages(np.array([3]))      # evicts 2
        assert tlb.access_pages(np.array([1])) == 0
        assert tlb.access_pages(np.array([2])) == 1

    def test_page_of(self):
        tlb = TLB(page_bytes=4096)
        assert tlb.page_of(0) == 0
        assert tlb.page_of(4095) == 0
        assert tlb.page_of(4096) == 1

    def test_access_addresses(self):
        tlb = TLB(entries=8)
        # Two addresses in the same page -> one miss.
        assert tlb.access_addresses(np.array([100, 200])) == 1

    def test_miss_rate(self):
        tlb = TLB(entries=8)
        assert tlb.miss_rate() == 0.0
        tlb.access_pages(np.array([1, 1, 1, 2]))
        assert tlb.miss_rate() == pytest.approx(0.5)

    def test_reset(self):
        tlb = TLB(entries=4)
        tlb.access_pages(np.array([1]))
        tlb.reset()
        assert tlb.misses == 0
        assert tlb.access_pages(np.array([1])) == 1

    def test_small_working_set_low_misses_large_high(self):
        # The property Figure 2 relies on: TLB misses track page locality,
        # not cache footprint.
        small, large = TLB(entries=16), TLB(entries=16)
        rng = np.random.default_rng(0)
        small.access_pages(rng.integers(0, 8, 2000))
        large.access_pages(rng.integers(0, 1000, 2000))
        assert small.miss_rate() < 0.05
        assert large.miss_rate() > 0.5


class TestPageFaultTracker:
    def test_first_touch_faults_once(self):
        t = PageFaultTracker()
        assert t.touch_pages(np.array([1, 2, 1, 2])) == 2
        assert t.touch_pages(np.array([1, 2])) == 0
        assert t.faults == 2

    def test_touch_addresses(self):
        t = PageFaultTracker(page_bytes=4096)
        assert t.touch_addresses(np.array([0, 100, 5000])) == 2

    def test_resident_pages(self):
        t = PageFaultTracker()
        t.touch_pages(np.array([1, 2, 3, 4]))
        t.touch_pages(np.array([2, 4]))
        assert t.resident_pages == 4

    def test_reset(self):
        t = PageFaultTracker()
        t.touch_pages(np.array([7]))
        t.reset()
        assert t.faults == 0
        assert t.resident_pages == 0
