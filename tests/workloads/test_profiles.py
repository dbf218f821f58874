"""Tests for the SPEC/PARSEC-like profile pools and the aim9 microbenchmark."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.aim9 import aim9_phases, make_aim9_generator
from repro.workloads.base import BLOCK_BYTES, WorkloadProfile
from repro.workloads.parsec import (
    PARSEC_PROFILES,
    parsec_pool,
    parsec_profile,
    parsec_profile_names,
)
from repro.workloads.spec import SPEC_PROFILES, spec_pool, spec_profile, spec_profile_names


class TestWorkloadProfile:
    def test_block_conversions(self):
        p = spec_profile("mcf")
        assert p.working_set_blocks == 16 * 1024 * 1024 // 64
        assert p.hot_set_blocks == p.hot_set_kb * 1024 // 64

    def test_access_instruction_roundtrip(self):
        p = spec_profile("gobmk")  # 5 accesses / kinstr
        assert p.accesses_for_instructions(1_000_000) == 5000
        assert p.instructions_for_accesses(5000) == 1_000_000

    def test_hot_exceeding_ws_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(
                name="bad",
                category="x",
                working_set_kb=64,
                hot_set_kb=128,
                accesses_per_kinstr=1.0,
                pattern="zipf",
            )

    def test_non_positive_intensity_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(
                name="bad",
                category="x",
                working_set_kb=64,
                hot_set_kb=64,
                accesses_per_kinstr=0.0,
                pattern="zipf",
            )

    def test_make_generator_bounds(self):
        p = spec_profile("povray")
        gen = p.make_generator(base_block=123, seed=5)
        out = gen.next_batch(1000)
        assert out.min() >= 123
        assert out.max() < 123 + p.working_set_blocks


class TestSpecPool:
    def test_pool_has_12_benchmarks(self):
        # The paper's pool: "12 SPEC 2006 programs ... chosen to have a
        # diverse mix".
        assert len(SPEC_PROFILES) == 12

    def test_expected_members(self):
        for name in ["mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"]:
            assert name in SPEC_PROFILES

    def test_diverse_categories(self):
        cats = {p.category for p in spec_pool()}
        assert {"cache_sensitive", "compute_bound", "bandwidth_bound", "streaming"} <= cats

    def test_mcf_is_most_sensitive_shape(self):
        # mcf: hot set below cache size, full set above it, high intensity.
        mcf = spec_profile("mcf")
        cache_kb = 4 * 1024
        assert mcf.hot_set_kb < cache_kb < mcf.working_set_kb
        assert mcf.accesses_per_kinstr == max(
            p.accesses_per_kinstr for p in spec_pool()
        )

    def test_povray_is_light(self):
        povray = spec_profile("povray")
        assert povray.working_set_kb <= 256
        assert povray.accesses_per_kinstr <= 2.0

    def test_unknown_profile_raises(self):
        with pytest.raises(WorkloadError, match="unknown SPEC profile"):
            spec_profile("doom3")

    def test_names_sorted_and_stable(self):
        assert spec_profile_names() == sorted(spec_profile_names())
        assert [p.name for p in spec_pool()] == spec_profile_names()

    def test_all_generators_construct(self):
        for profile in spec_pool():
            gen = profile.make_generator(seed=1)
            assert len(gen.next_batch(64)) == 64


class TestParsecPool:
    def test_pool_members(self):
        assert "ferret" in PARSEC_PROFILES
        assert len(PARSEC_PROFILES) >= 6

    def test_four_threads_default(self):
        # Paper: "each application has four threads".
        assert all(p.threads == 4 for p in parsec_pool())

    def test_footprint_blocks(self):
        p = parsec_profile("ferret")
        assert p.footprint_blocks == p.shared_blocks + 4 * p.private_blocks

    def test_thread_generators_share_shared_region(self):
        p = parsec_profile("streamcluster")  # 90% shared
        g0 = p.make_thread_generator(0, base_block=0, seed=3)
        g1 = p.make_thread_generator(1, base_block=0, seed=3)
        a = g0.next_batch(5000)
        b = g1.next_batch(5000)
        shared_a = set(a[a < p.shared_blocks].tolist())
        shared_b = set(b[b < p.shared_blocks].tolist())
        # Heavy sharing: the streams touch many common blocks.
        assert len(shared_a & shared_b) > 0.3 * min(len(shared_a), len(shared_b))

    def test_private_regions_disjoint(self):
        p = parsec_profile("bodytrack")
        g0 = p.make_thread_generator(0, seed=1)
        g1 = p.make_thread_generator(1, seed=1)
        a = g0.next_batch(5000)
        b = g1.next_batch(5000)
        priv_a = set(a[a >= p.shared_blocks].tolist())
        priv_b = set(b[b >= p.shared_blocks].tolist())
        assert not (priv_a & priv_b)

    def test_thread_index_validated(self):
        with pytest.raises(WorkloadError):
            parsec_profile("ferret").make_thread_generator(4)

    def test_base_block_offsets(self):
        p = parsec_profile("swaptions")
        gen = p.make_thread_generator(0, base_block=10_000, seed=0)
        assert gen.next_batch(100).min() >= 10_000

    def test_unknown_profile(self):
        with pytest.raises(WorkloadError):
            parsec_profile("raytrace9000")

    def test_names_sorted(self):
        assert parsec_profile_names() == sorted(parsec_profile_names())

    def test_accesses_for_instructions(self):
        p = parsec_profile("ferret")
        assert p.accesses_for_instructions(1000_000) == 12_000


class TestAim9:
    def test_phase_schedule_nonempty(self):
        phases = aim9_phases()
        assert len(phases) >= 5
        assert all(kb > 0 and 0 < churn <= 1 and n > 0 for kb, churn, n in phases)

    def test_footprint_varies_over_time(self):
        sizes = [kb for kb, _, _ in aim9_phases()]
        assert max(sizes) / min(sizes) >= 8  # big dynamic range

    def test_footprint_and_churn_decorrelated(self):
        # The Figure 2 construction: miss rate (churn) carries no
        # information about working-set size.
        sizes = np.array([kb for kb, _, _ in aim9_phases()], dtype=float)
        churns = np.array([c for _, c, _ in aim9_phases()], dtype=float)
        corr = abs(np.corrcoef(sizes, churns)[0, 1])
        assert corr < 0.5

    def test_generator_live_window_respected(self):
        gen = make_aim9_generator(seed=0)
        for window_kb, churn, accesses in aim9_phases():
            window_blocks = window_kb * 1024 // BLOCK_BYTES
            out = gen.next_batch(accesses)
            # Live-window property: every access lies within window_blocks
            # of the running maximum (the stream cursor).
            running_max = np.maximum.accumulate(out)
            assert ((running_max - out) <= window_blocks).all()

    def test_phases_use_disjoint_slices(self):
        gen = make_aim9_generator(seed=0)
        phase_blocks = [
            gen.next_batch(accesses) for _, _, accesses in aim9_phases()
        ]
        for a, b in zip(phase_blocks, phase_blocks[1:]):
            assert set(a.tolist()).isdisjoint(set(b.tolist()))

    def test_custom_phases(self):
        gen = make_aim9_generator(phases=[(64, 0.5, 100), (128, 0.4, 100)], seed=1)
        out = gen.next_batch(200)
        assert len(out) == 200

    def test_reset(self):
        gen = make_aim9_generator(seed=2)
        first = gen.next_batch(1000)
        gen.reset()
        assert np.array_equal(gen.next_batch(1000), first)
