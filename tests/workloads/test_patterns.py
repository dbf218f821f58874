"""Tests for address-pattern generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadProfile
from repro.workloads.patterns import (
    HotColdGenerator,
    MixtureGenerator,
    PhasedGenerator,
    PointerChaseGenerator,
    RandomRegionGenerator,
    StreamGenerator,
    StridedGenerator,
    generator_for_profile,
)

ALL_SIMPLE = [
    lambda: StridedGenerator(100, 3, seed=1),
    lambda: StreamGenerator(100, seed=1),
    lambda: RandomRegionGenerator(100, seed=1),
    lambda: HotColdGenerator(100, 10, 0.8, seed=1),
    lambda: PointerChaseGenerator(100, seed=1),
]


@pytest.mark.parametrize("factory", ALL_SIMPLE)
class TestCommonGeneratorContract:
    def test_batch_length(self, factory):
        gen = factory()
        assert len(gen.next_batch(37)) == 37

    def test_addresses_in_region(self, factory):
        gen = factory()
        out = gen.next_batch(500)
        assert out.min() >= 0 and out.max() < 100

    def test_deterministic_replay_after_reset(self, factory):
        gen = factory()
        first = gen.next_batch(200)
        gen.reset()
        assert np.array_equal(gen.next_batch(200), first)
        assert gen.blocks_generated == 200

    def test_base_block_offsets_everything(self, factory):
        gen = factory()
        gen.base_block = 10_000
        out = gen.next_batch(100)
        assert out.min() >= 10_000 and out.max() < 10_100

    def test_stream_continues_across_batches(self, factory):
        gen = factory()
        a = np.concatenate([gen.next_batch(50), gen.next_batch(50)])
        gen.reset()
        b = gen.next_batch(100)
        assert np.array_equal(a, b)

    def test_rejects_zero_batch(self, factory):
        with pytest.raises(ValueError):
            factory().next_batch(0)


class TestStrided:
    def test_sequence(self):
        gen = StridedGenerator(10, 3)
        assert gen.next_batch(5).tolist() == [0, 3, 6, 9, 2]

    def test_unit_stride_wraps(self):
        gen = StreamGenerator(4)
        assert gen.next_batch(6).tolist() == [0, 1, 2, 3, 0, 1]

    def test_figure1_conflict_pattern(self):
        # Stride == num_sets on a direct-mapped cache -> single-set conflicts.
        gen = StridedGenerator(64, 8)
        out = gen.next_batch(8)
        assert set(out % 8) == {0}


class TestHotCold:
    def test_hot_fraction_respected(self):
        gen = HotColdGenerator(1000, 10, hot_fraction=0.9, seed=0)
        out = gen.next_batch(20_000)
        frac_hot = (out < 10).mean()
        assert 0.88 < frac_hot < 0.93

    def test_all_cold(self):
        gen = HotColdGenerator(1000, 10, hot_fraction=0.0, seed=0)
        out = gen.next_batch(5000)
        # Uniform over the whole region: hot share ~ 10/1000.
        assert (out < 10).mean() < 0.05

    def test_hot_exceeding_region_rejected(self):
        with pytest.raises(WorkloadError):
            HotColdGenerator(10, 20)

    def test_bad_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            HotColdGenerator(10, 5, hot_fraction=1.5)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_draw_equals_the_masked_formula(self, fraction):
        # The hot and cold branches written as two masked gathers and
        # scatters over the same uniform draw.
        def masked(u):
            out = np.empty(len(u), dtype=np.int64)
            hot = u < fraction
            if fraction > 0.0:
                out[hot] = (u[hot] / fraction * 37).astype(np.int64)
            cold = ~hot
            if fraction < 1.0:
                out[cold] = (
                    (u[cold] - fraction) / (1.0 - fraction) * 1000
                ).astype(np.int64)
            return np.minimum(out, 999)

        gen = HotColdGenerator(1000, 37, hot_fraction=fraction, seed=5)
        draws = np.random.default_rng(5)
        with np.errstate(all="raise"):  # no division by zero at 0 or 1
            for n in (1, 255, 8192):
                assert np.array_equal(gen._generate(n), masked(draws.random(n)))


class TestPointerChase:
    def test_covers_region_exactly_once_per_lap(self):
        gen = PointerChaseGenerator(50, seed=3)
        lap = gen.next_batch(50)
        assert sorted(lap.tolist()) == list(range(50))

    def test_laps_identical(self):
        gen = PointerChaseGenerator(50, seed=3)
        lap1 = gen.next_batch(50)
        lap2 = gen.next_batch(50)
        assert np.array_equal(lap1, lap2)

    def test_order_is_shuffled(self):
        gen = PointerChaseGenerator(100, seed=3)
        assert gen.next_batch(100).tolist() != list(range(100))

    def test_different_seeds_different_orders(self):
        a = PointerChaseGenerator(100, seed=1).next_batch(100)
        b = PointerChaseGenerator(100, seed=2).next_batch(100)
        assert not np.array_equal(a, b)


class TestPhased:
    def test_phase_transitions(self):
        g1 = StridedGenerator(4, 1, seed=0)
        g2 = StridedGenerator(4, 1, seed=0)
        g2.base_block = 100
        gen = PhasedGenerator([(g1, 3), (g2, 2)])
        out = gen.next_batch(5)
        assert out.tolist() == [0, 1, 2, 100, 101]
        assert gen.current_phase == 0  # cycled back

    def test_cycles(self):
        g1 = StridedGenerator(10, 1, seed=0)
        gen = PhasedGenerator([(g1, 3)])
        out = gen.next_batch(7)
        assert len(out) == 7

    def test_batch_spanning_phases(self):
        g1 = RandomRegionGenerator(10, seed=0)
        g2 = RandomRegionGenerator(10, seed=0)
        g2.base_block = 1000
        gen = PhasedGenerator([(g1, 5), (g2, 5)])
        out = gen.next_batch(10)
        assert (out[:5] < 10).all()
        assert (out[5:] >= 1000).all()

    def test_reset_restarts_phases(self):
        g1 = StridedGenerator(10, 1, seed=0)
        g2 = RandomRegionGenerator(10, seed=5)
        gen = PhasedGenerator([(g1, 4), (g2, 4)])
        first = gen.next_batch(8)
        gen.reset()
        assert np.array_equal(gen.next_batch(8), first)

    def test_empty_phases_rejected(self):
        with pytest.raises(WorkloadError):
            PhasedGenerator([])


class TestMixture:
    def test_weights_respected(self):
        hot = RandomRegionGenerator(10, seed=1)
        cold = RandomRegionGenerator(10, seed=2)
        cold.base_block = 1000
        gen = MixtureGenerator([hot, cold], [0.75, 0.25], seed=0)
        out = gen.next_batch(40_000)
        frac_hot = (out < 1000).mean()
        assert 0.70 < frac_hot < 0.80

    def test_reset_replays(self):
        gen = MixtureGenerator(
            [RandomRegionGenerator(10, seed=1), RandomRegionGenerator(10, seed=2)],
            [0.5, 0.5],
            seed=3,
        )
        first = gen.next_batch(500)
        gen.reset()
        assert np.array_equal(gen.next_batch(500), first)

    def test_base_applies_on_top(self):
        gen = MixtureGenerator([RandomRegionGenerator(10, seed=1)], [1.0], base_block=50)
        out = gen.next_batch(100)
        assert out.min() >= 50 and out.max() < 60

    def test_misaligned_weights_rejected(self):
        with pytest.raises(WorkloadError):
            MixtureGenerator([RandomRegionGenerator(10)], [0.5, 0.5])

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(WorkloadError):
            MixtureGenerator([RandomRegionGenerator(10)], [0.0])

    def test_stream_identical_to_scalar_chunk_loop(self):
        """The vectorised ``_generate`` must be byte-for-byte the stream
        of the original one-``rng.choice``-per-chunk loop (traces are
        content-addressed; any drift would invalidate cached results)."""

        class ScalarMixture(MixtureGenerator):
            def _generate(self, n):
                out = []
                remaining = n
                while remaining > 0:
                    idx = self._rng.choice(len(self.generators), p=self.weights)
                    take = min(self.CHUNK, remaining)
                    out.append(self.generators[int(idx)].next_batch(take))
                    remaining -= take
                return np.concatenate(out)

        def build(cls, seed):
            return cls(
                [
                    RandomRegionGenerator(32, seed=11),
                    StreamGenerator(64, seed=12),
                ],
                [0.6, 0.4],
                seed=seed,
            )

        # Odd sizes exercise partial chunks and the chunk-merging path;
        # both generators see the same splits (chunking is per call).
        for seed in (0, 5):
            for splits in ((457,), (7, 16, 33, 400, 1)):
                new = build(MixtureGenerator, seed)
                old = build(ScalarMixture, seed)
                got = np.concatenate([new.next_batch(k) for k in splits])
                want = np.concatenate([old.next_batch(k) for k in splits])
                assert np.array_equal(got, want), (seed, splits)


class TestGeneratorForProfile:
    def _profile(self, pattern, **kw):
        defaults = dict(
            name="x",
            category="moderate",
            working_set_kb=64,
            hot_set_kb=16,
            accesses_per_kinstr=5.0,
            pattern=pattern,
            locality=0.8,
        )
        defaults.update(kw)
        return WorkloadProfile(**defaults)

    @pytest.mark.parametrize(
        "pattern", ["stream", "strided", "random", "zipf", "pointer_chase", "mixed"]
    )
    def test_all_patterns_construct_and_stay_in_bounds(self, pattern):
        profile = self._profile(pattern)
        gen = generator_for_profile(profile, base_block=500, seed=1)
        out = gen.next_batch(2000)
        assert out.min() >= 500
        assert out.max() < 500 + profile.working_set_blocks

    def test_chase_without_hot_subset(self):
        profile = self._profile("pointer_chase", hot_set_kb=64)
        gen = generator_for_profile(profile)
        assert isinstance(gen, PointerChaseGenerator)

    def test_unknown_pattern_rejected(self):
        profile = self._profile("zipf")
        object.__setattr__(profile, "pattern", "wavelet")
        with pytest.raises(WorkloadError):
            generator_for_profile(profile)

    def test_seeded_determinism(self):
        profile = self._profile("mixed")
        a = generator_for_profile(profile, seed=9).next_batch(300)
        b = generator_for_profile(profile, seed=9).next_batch(300)
        assert np.array_equal(a, b)


class TestGeneratorProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_region_bounds(self, region, n, seed):
        gen = RandomRegionGenerator(region, seed=seed)
        out = gen.next_batch(n)
        assert out.min() >= 0 and out.max() < region

    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_chase_is_permutation_cycle(self, region, n):
        gen = PointerChaseGenerator(region, seed=0)
        out = gen.next_batch(n)
        # Any window of length <= region has no repeats.
        take = min(n, region)
        assert len(set(out[:take].tolist())) == take
