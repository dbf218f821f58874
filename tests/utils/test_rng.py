"""Tests for deterministic RNG stream management."""

import numpy as np
import pytest

from repro.utils.rng import derive_rng, make_rng, stable_seed


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1 << 30, 10)
        b = make_rng(42).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = make_rng(1).integers(0, 1 << 30, 10)
        b = make_rng(2).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = make_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_entropy(self):
        # Two entropy-seeded generators should (overwhelmingly) differ.
        a = make_rng(None).integers(0, 1 << 62, 4)
        b = make_rng(None).integers(0, 1 << 62, 4)
        assert not np.array_equal(a, b)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("mcf", 3) == stable_seed("mcf", 3)

    def test_part_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_no_concat_ambiguity(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_positive_63_bit(self):
        for parts in [("x",), ("y", 1), (123,)]:
            s = stable_seed(*parts)
            assert 0 <= s < (1 << 63)


class TestDeriveRng:
    def test_keyed_streams_reproducible(self):
        a = derive_rng(3, "workload", "mcf").integers(0, 100, 5)
        b = derive_rng(3, "workload", "mcf").integers(0, 100, 5)
        assert np.array_equal(a, b)

    def test_keyed_streams_distinct(self):
        a = derive_rng(3, "mcf").integers(0, 1 << 30, 8)
        b = derive_rng(3, "omnetpp").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_rejects_generator_root(self):
        with pytest.raises(TypeError):
            derive_rng(np.random.default_rng(0), "x")
