"""Seeded property-based invariants of the signature unit's counting filter.

Randomised inputs, deterministic seeds: each property is checked over a
fixed set of RNG seeds so a failure is reproducible by construction. The
properties run against :class:`~repro.core.signature.SignatureUnit`, the
only counting Bloom filter the simulator has, through its batched fill
and eviction paths. They pin the behaviours the adversarial suite leans
on: occupancy monotonicity (the footprint signal), the analytical
false-positive bound (the alias-rate yardstick the
:class:`~repro.estimate.gate.EstimateGate` reasons against), and the
non-strict underflow clamp.
"""

import math

import numpy as np
import pytest

from repro.adversary import alias_preimages
from repro.core.signature import SignatureConfig, SignatureUnit
from repro.utils.rng import make_rng

SEEDS = (0, 3, 11, 29)
ENTRIES = 256


def _unit(num_hashes, num_cores=1):
    # 64 sets x 4 ways: one entry per tracked line, 256 in all.
    unit = SignatureUnit(
        SignatureConfig(
            num_cores=num_cores, num_sets=64, ways=4, num_hashes=num_hashes
        )
    )
    assert unit.num_entries == ENTRIES
    return unit


def _random_blocks(seed, count, span=1 << 40):
    rng = make_rng(seed)
    return np.unique(rng.integers(0, span, count, dtype=np.int64))


def _false_hit_bound(entries, num_hashes, inserted):
    """The textbook Bloom false-positive rate ``(1 - e^{-kn/m})^k``."""
    return (1.0 - math.exp(-num_hashes * inserted / entries)) ** num_hashes


def _hits(unit, probes):
    """A probe hits when every counter its hashes select is non-zero."""
    indices = np.stack([h.hash_many(probes) for h in unit.hashes])
    return (unit.counters[indices] > 0).all(axis=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_occupancy_is_monotone_under_inserts(seed):
    unit = _unit(num_hashes=2, num_cores=2)
    blocks = _random_blocks(seed, 400)
    previous = 0
    for i, chunk in enumerate(np.array_split(blocks, 8)):
        unit.record_fill_batch(i % 2, chunk)
        weight = unit.total_occupancy()
        assert weight >= previous, "fills can only raise occupancy"
        assert weight <= ENTRIES
        previous = weight
    assert previous > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_occupancy_bounded_by_distinct_inserts_times_hashes(seed):
    unit = _unit(num_hashes=2)
    blocks = _random_blocks(seed, 60)
    unit.record_fill_batch(0, blocks)
    assert unit.total_occupancy() <= len(blocks) * unit.config.num_hashes


@pytest.mark.parametrize("seed", SEEDS)
def test_empirical_alias_rate_tracks_analytical_bound(seed):
    """A uniform workload's false-hit rate sits near the textbook bound.

    ``(1 - e^{-kn/m})^k`` is an expectation, so the empirical rate is
    checked within a generous band — the point is the *scale*: a
    uniformly-hashed stream stays in the bound's neighbourhood, while
    the adversarial preimage family (next test) pegs the rate at 1.
    """
    inserted = _random_blocks(seed, 120)
    unit = _unit(num_hashes=1)
    unit.record_fill_batch(0, inserted)
    probes = _random_blocks(seed + 1000, 3000)
    probes = np.setdiff1d(probes, inserted)
    empirical = _hits(unit, probes).mean()
    analytical = _false_hit_bound(ENTRIES, 1, len(inserted))
    assert abs(empirical - analytical) < 0.08, (
        f"empirical {empirical:.3f} strays from analytical {analytical:.3f}"
    )


def test_aliased_stream_pegs_false_hit_rate_at_one():
    # One filled preimage makes every OTHER preimage of the same index
    # a guaranteed false hit — the adversarial ceiling the analytical
    # formula (~0.004 for n=1, m=256) is nowhere near.
    family = alias_preimages(ENTRIES, target_index=7, count=64)
    unit = _unit(num_hashes=1)
    unit.record_fill_batch(0, family[:1])
    assert _hits(unit, family[1:]).all()
    assert _false_hit_bound(ENTRIES, 1, 1) < 0.01


def test_nonstrict_delete_clamps_and_counts_underflow():
    unit = _unit(num_hashes=1)
    unit.record_eviction_batch(np.asarray([42]))
    assert unit.stats.underflow_events == 1
    assert np.all(unit.counters == 0)
    assert unit.core_occupancy(0) == 0
