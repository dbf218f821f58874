"""``SignatureUnit.record_events`` against a naive per-event model.

The reference below is plain Python: a list of counters, one ``set`` per
Core Filter and Last Filter, and its own XOR fold of the block address.
It applies the documented batch semantics one event at a time — every
fill (increment, clamp at ``counter_max``, set the filling core's bit),
then every eviction (decrement, clamp at 0, clear the bit in every core
when the counter is zero) — and the context-switch sample
``RBV = CF & ~LF``. An address whose hash indices coincide moves its
counter once. Small filters, 1- to 3-bit counters and block pools of a
few addresses make batches saturate and underflow.

Both engines are checked, the compiled kernel (which every k = 1
configuration here takes) and the numpy code: on the batches the
simulator runs, and fed one event per call, which is the true event
order ("exact" below). Events arrive as plain lists, as well as the
int64 arrays the cache produces.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.signature import SignatureConfig, SignatureStats, SignatureUnit
from tests.engines import available_engines, on_engine

_U64 = (1 << 64) - 1
#: The salts of hash functions 0 and 1 (function 0 is unsalted).
_SALTS = (None, 0xC2B2AE3D27D4EB4F)


def _xor_fold(block, entries, salt_index, fold_bits=48):
    u = block & _U64
    if _SALTS[salt_index] is not None:
        u = (u * _SALTS[salt_index]) & _U64
        u ^= u >> 31
    bits = entries.bit_length() - 1
    index = 0
    for shift in range(0, fold_bits, bits):
        index ^= (u >> shift) & (entries - 1)
    return index


class NaiveUnit:
    """The split-CBF rules, one event at a time."""

    def __init__(self, cores, entries, counter_bits, num_hashes):
        self.entries = entries
        self.num_hashes = num_hashes
        self.counter_max = (1 << counter_bits) - 1
        self.counters = [0] * entries
        self.cf = [set() for _ in range(cores)]
        self.lf = [set() for _ in range(cores)]
        self.stats = dataclasses.asdict(SignatureStats())

    def _indices(self, block):
        out = []
        for salt_index in range(self.num_hashes):
            index = _xor_fold(block, self.entries, salt_index)
            if index not in out:
                out.append(index)
        return out

    def record(self, core, fills, evictions):
        for block in fills:
            self.stats["fills_tracked"] += 1
            for i in self._indices(block):
                if self.counters[i] == self.counter_max:
                    self.stats["saturation_events"] += 1
                else:
                    self.counters[i] += 1
                self.cf[core].add(i)
        for block in evictions:
            self.stats["evictions_tracked"] += 1
            for i in self._indices(block):
                if self.counters[i] == 0:
                    self.stats["underflow_events"] += 1
                else:
                    self.counters[i] -= 1
                if self.counters[i] == 0:
                    for cf in self.cf:
                        cf.discard(i)

    def context_switch(self, core):
        rbv = self.cf[core] - self.lf[core]
        sample = (len(rbv), [len(rbv ^ cf) for cf in self.cf])
        self.lf[core] = set(self.cf[core])
        self.stats["context_switches"] += 1
        return sample


def _bits(vec):
    return set(vec.to_indices().tolist())


@st.composite
def scenarios(draw):
    cores = draw(st.integers(1, 4))
    pool = draw(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8, unique=True)
    )
    blocks = st.lists(st.sampled_from(pool), max_size=24)
    batches = draw(
        st.lists(
            st.tuples(
                st.integers(0, cores - 1),
                blocks,
                blocks,
                st.lists(st.integers(0, cores - 1), max_size=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return cores, batches


@given(
    scenario=scenarios(),
    counter_bits=st.integers(1, 3),
    num_hashes=st.integers(1, 2),
    num_sets=st.sampled_from([4, 8]),
)
@example(
    # Saturate one counter, then evict more often than it was filled.
    scenario=(2, [(0, [5] * 12, [], [0]), (1, [], [5] * 20, [0, 1])]),
    counter_bits=1,
    num_hashes=1,
    num_sets=4,
)
@example(
    scenario=(3, [(2, [1, 17, 33] * 5, [17], [2, 1]), (0, [9], [1, 9, 9], [2])]),
    counter_bits=2,
    num_hashes=2,
    num_sets=8,
)
@settings(max_examples=80, deadline=None)
def test_batches_match_the_per_event_model(
    scenario, counter_bits, num_hashes, num_sets
):
    cores, batches = scenario
    config = SignatureConfig(
        num_cores=cores,
        num_sets=num_sets,
        ways=2,
        counter_bits=counter_bits,
        num_hashes=num_hashes,
    )
    for engine in available_engines():
        with on_engine(engine):
            unit = SignatureUnit(config)
        assert (unit._cbf_events is not None) == (
            engine == "kernel" and num_hashes == 1
        )
        ref = NaiveUnit(cores, unit.num_entries, counter_bits, num_hashes)
        for i, (core, fills, evictions, switches) in enumerate(batches):
            if i % 2:
                unit.record_events(
                    core, np.asarray(fills, dtype=np.int64), None,
                    np.asarray(evictions, dtype=np.int64), None,
                )
            else:
                unit.record_events(core, fills, None, evictions, None)
            ref.record(core, fills, evictions)
            for switched in switches:
                _assert_same_sample(unit, ref, switched)
            _assert_same_state(unit, ref)


@st.composite
def event_streams(draw):
    """Single fill, eviction and context-switch events on 1-3 cores."""
    cores = draw(st.integers(1, 3))
    pool = draw(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8, unique=True)
    )
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fill", "evict", "switch"]),
                st.integers(0, cores - 1),
                st.sampled_from(pool),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return cores, events


@given(
    stream=event_streams(),
    counter_bits=st.integers(1, 3),
    num_hashes=st.integers(1, 2),
    num_sets=st.sampled_from([4, 8]),
)
@example(
    # Both hashes of block 13 fold to entry 4 of 8: each fill and each
    # eviction moves that counter once, so one saturation, one underflow.
    stream=(1, [("fill", 0, 13)] * 2 + [("evict", 0, 13)] * 2 + [("switch", 0, 13)]),
    counter_bits=1,
    num_hashes=2,
    num_sets=4,
)
@example(
    # Both cores fill block 5; its second eviction zeroes the counter and
    # clears the entry in both Core Filters.
    stream=(2, [("fill", 1, 5), ("fill", 0, 5), ("switch", 1, 5), ("evict", 0, 5),
                ("fill", 0, 9), ("switch", 0, 9), ("evict", 1, 5)]),
    counter_bits=2,
    num_hashes=1,
    num_sets=4,
)
@settings(max_examples=80, deadline=None)
def test_exact_path_matches_the_per_event_model(
    stream, counter_bits, num_hashes, num_sets
):
    cores, events = stream
    config = SignatureConfig(
        num_cores=cores,
        num_sets=num_sets,
        ways=2,
        counter_bits=counter_bits,
        num_hashes=num_hashes,
    )
    for engine in available_engines():
        with on_engine(engine):
            unit = SignatureUnit(config)
        ref = NaiveUnit(cores, unit.num_entries, counter_bits, num_hashes)
        for kind, core, block in events:
            if kind == "switch":
                _assert_same_sample(unit, ref, core)
            else:
                fills, evictions = ([block], []) if kind == "fill" else ([], [block])
                unit.record_events(core, fills, None, evictions, None)
                ref.record(core, fills, evictions)
            _assert_same_state(unit, ref)


def _assert_same_sample(unit, ref, core):
    sample = unit.on_context_switch(core)
    assert (sample.occupancy, list(sample.symbiosis)) == ref.context_switch(core)


def _assert_same_state(unit, ref):
    assert unit.counters.tolist() == ref.counters
    assert [_bits(cf) for cf in unit.core_filters] == ref.cf
    assert [_bits(lf) for lf in unit.last_filters] == ref.lf
    assert dataclasses.asdict(unit.stats) == ref.stats
