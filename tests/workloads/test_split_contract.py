"""The trace generators' split contract, and the read-ahead built on it.

A generator with a positive ``split_granule`` *g* promises that one long
``next_batch`` call returns the same references as the same length split
into calls whose lengths, all but the last, are multiples of *g*. A
generator invariant at every split reads ahead (``TraceGenerator``
draws many batches at once and serves later calls from them), so one
that breaks its promise would silently change simulated results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.generators import (
    AliasingGenerator,
    PhaseFlapGenerator,
    SaturatingGenerator,
    ThrashingGenerator,
)
from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig
from repro.estimate.sampled import ReplayGenerator
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask, task_from_profile
from repro.workloads.aim9 import make_aim9_generator
from repro.workloads import base
from repro.workloads.base import TraceGenerator
from repro.workloads.parsec import parsec_profile
from repro.workloads.patterns import (
    HotColdGenerator,
    MixtureGenerator,
    PhasedGenerator,
    PointerChaseGenerator,
    RandomRegionGenerator,
    SlidingWindowGenerator,
    StreamGenerator,
    StridedGenerator,
)
from repro.workloads.spec import spec_profile, spec_profile_names

#: Split-invariant constructions, keyed by a readable id; each takes a seed.
INVARIANT = {
    "strided": lambda seed: StridedGenerator(97, 5, base_block=3, seed=seed),
    "stream": lambda seed: StreamGenerator(50, seed=seed),
    "random": lambda seed: RandomRegionGenerator(1000, base_block=7, seed=seed),
    "random-64bit-range": lambda seed: RandomRegionGenerator(1 << 40, seed=seed),
    "hot-cold": lambda seed: HotColdGenerator(500, 40, hot_fraction=0.8, seed=seed),
    "pointer-chase": lambda seed: PointerChaseGenerator(77, seed=seed),
    "sliding-window": lambda seed: SlidingWindowGenerator(30, churn=0.3, seed=seed),
    "phased": lambda seed: PhasedGenerator(
        [
            (SlidingWindowGenerator(20, base_block=0, seed=seed + 1), 37),
            (RandomRegionGenerator(300, base_block=1000, seed=seed + 2), 23),
        ],
        seed=seed,
    ),
    "aim9": lambda seed: make_aim9_generator(
        phases=[(64, 0.3, 41), (16, 0.6, 19)], seed=seed
    ),
    "mixture": lambda seed: MixtureGenerator(
        [
            PointerChaseGenerator(64, seed=seed + 1),
            RandomRegionGenerator(4096, seed=seed + 2),
        ],
        weights=[0.7, 0.3],
        seed=seed,
    ),
    "parsec-thread": lambda seed: parsec_profile("ferret").make_thread_generator(
        1, base_block=100, seed=seed
    ),
    "aliasing-scan": lambda seed: AliasingGenerator(
        1024, target_index=5, region_blocks=64, reuse="scan", seed=seed
    ),
    "saturating": lambda seed: SaturatingGenerator(256, pressure=3.0, seed=seed),
    "thrashing": lambda seed: ThrashingGenerator(200, overshoot=1.3, seed=seed),
    "phase-flap": lambda seed: PhaseFlapGenerator(64, period=10, seed=seed),
    "replay": lambda seed: ReplayGenerator(
        np.arange(37, dtype=np.int64) * 3, base_block=5, seed=seed
    ),
}
for _name in spec_profile_names():
    INVARIANT[f"spec-{_name}"] = (
        lambda seed, _name=_name: spec_profile(_name).make_generator(
            base_block=1 << 22, seed=seed
        )
    )

#: Generators that must not claim the contract: their streams depend on
#: the split, or the promise cannot be derived from their parts.
UNDECLARED = {
    "aliasing-hot": lambda seed: AliasingGenerator(
        1024, target_index=5, region_blocks=64, reuse="hot", seed=seed
    ),
    "mixture-of-aliasing-hot": lambda seed: MixtureGenerator(
        [
            AliasingGenerator(1024, region_blocks=64, reuse="hot", seed=seed + 1),
            StreamGenerator(100, seed=seed + 2),
        ],
        weights=[0.5, 0.5],
        seed=seed,
    ),
    "phased-over-a-mixture": lambda seed: PhasedGenerator(
        [(INVARIANT["mixture"](seed + 1), 40), (StreamGenerator(9), 8)],
        seed=seed,
    ),
}

_PACKAGES = ("repro.workloads", "repro.adversary", "repro.estimate.sampled")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _split(make, seed, lengths):
    gen = make(seed)
    return np.concatenate([gen.next_batch(n) for n in lengths])


def test_every_generator_class_is_covered():
    shipped = {
        cls for cls in _subclasses(TraceGenerator)
        if cls.__module__.startswith(_PACKAGES)
    }
    covered = {
        type(make(0)) for make in [*INVARIANT.values(), *UNDECLARED.values()]
    }
    assert shipped <= covered, sorted(c.__name__ for c in shipped - covered)


# Without read-ahead every call draws exactly what it asks for, which is
# the contract itself; a short read-ahead also refills with a rest left.
@pytest.mark.parametrize("read_ahead", [0, 50])
@pytest.mark.parametrize("name", sorted(INVARIANT))
@given(
    seed=st.integers(0, 2**16),
    granules=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    tail=st.integers(1, 90),
)
@settings(max_examples=25, deadline=None)
def test_declared_invariance_holds(name, read_ahead, seed, granules, tail):
    make = INVARIANT[name]
    g = make(seed).split_granule
    assert g > 0
    lengths = [k * g for k in granules] + [tail]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "READ_AHEAD", read_ahead)
        whole = make(seed).next_batch(sum(lengths))
        split = _split(make, seed, lengths)
    assert split.tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", sorted(UNDECLARED))
def test_undeclared_generators_make_no_promise(name):
    assert UNDECLARED[name](0).split_granule == 0


def test_aliasing_hot_stream_depends_on_the_split():
    make = UNDECLARED["aliasing-hot"]
    whole = make(3).next_batch(512)
    assert _split(make, 3, [256, 256]).tobytes() != whole.tobytes()


def test_mixture_is_invariant_only_at_chunk_multiples():
    make = INVARIANT["mixture"]
    assert make(0).split_granule == MixtureGenerator.CHUNK
    whole = make(4).next_batch(200)
    assert _split(make, 4, [100, 100]).tobytes() != whole.tobytes()


# ---------------------------------------------------------------------------
# the read-ahead


def _drawn(gen):
    """Record the size of every ``_generate`` call *gen* makes."""
    sizes = []
    generate = gen._generate

    def recorded(n):
        sizes.append(n)
        return generate(n)

    gen._generate = recorded
    return sizes


def test_read_ahead_grows_with_the_stream(monkeypatch):
    monkeypatch.setattr(base, "READ_AHEAD", 100)
    gen = StreamGenerator(100_000)
    sizes = _drawn(gen)
    served = np.concatenate([gen.next_batch(16) for _ in range(20)])
    assert served.tolist() == list(range(320))
    # The first call draws what it asks for; each later draw tops the
    # read-ahead up to what the stream served so far, capped at READ_AHEAD
    # (the last one finds 4 references left).
    assert sizes == [16, 16, 32, 64, 100, 96]
    # A call the rest cannot serve takes the rest, then draws the remainder.
    last = gen.next_batch(150)
    assert last.tolist() == list(range(320, 470))
    assert sizes[-1] == 150 - 4
    assert gen.blocks_generated == 470
    gen.reset()
    assert gen.next_batch(8).tolist() == list(range(8))
    assert sizes[-1] == 8


def test_generators_without_the_promise_draw_each_call_exactly():
    for gen in (UNDECLARED["aliasing-hot"](0), INVARIANT["mixture"](0)):
        sizes = _drawn(gen)
        for n in (256, 256, 100):
            gen.next_batch(n)
        assert sizes == [256, 256, 100]


def _machine():
    return MachineConfig(
        name="tiny",
        num_cores=2,
        l2=tiny_cache(sets=64, ways=4),
        shared_l2=True,
        timing=TimingModel(),
    )


def _mix(seed):
    # Runs of 10,003 / 21,505 / 13,891 references: several read-aheads
    # per run at every batch size, and a run end that is no multiple of
    # a batch.
    tasks = [
        task_from_profile(
            spec_profile(name), 400_123 + 77_777 * i, base_block=(i + 1) << 20,
            seed=seed + i,
        )
        for i, name in enumerate(["milc", "mcf", "libquantum"])
    ]
    tasks.append(
        SimTask(
            name="alias-hot",
            generator=UNDECLARED["aliasing-hot"](seed),
            total_accesses=1_234,
            accesses_per_kinstr=30.0,
        )
    )
    return tasks


def _counted(tasks):
    """Count each task generator's calls; returns ``{"served": refs handed
    out, "drawn": refs drawn, "draws": _generate calls}``."""
    tally = {"served": 0, "drawn": 0, "draws": 0}
    for task in tasks:
        gen = task.generator
        fetch, generate = gen.next_batch, gen._generate

        def served(n, fetch=fetch):
            tally["served"] += n
            return fetch(n)

        def drawn(n, generate=generate):
            tally["drawn"] += n
            tally["draws"] += 1
            return generate(n)

        gen.next_batch, gen._generate = served, drawn
    return tally


def _simulate(tasks, batch):
    """``(repr of the result, references the L2 saw)`` of one run."""
    sim = MulticoreSimulator(
        _machine(),
        tasks,
        signature_config=SignatureConfig(num_cores=2, num_sets=64, ways=4),
        scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=40_000.0),
        batch_accesses=batch,
    )
    result = sim.run(min_wall_cycles=2e6)
    return repr(result), sim.caches[0].stats.total_accesses


@pytest.mark.parametrize("batch", [256, 100, 48])
def test_read_ahead_leaves_results_unchanged(monkeypatch, batch):
    # One set of tasks serves both runs (the simulator resets them), so
    # task and process ids match in the two reprs.
    tasks = _mix(11)
    tally = _counted(tasks)
    ahead, consumed = _simulate(tasks, batch)
    # The L2 sees every reference handed out, and only those.
    assert tally["served"] == consumed
    assert tally["drawn"] >= consumed
    read_ahead_draws = tally["draws"]
    tally.update(served=0, drawn=0, draws=0)
    monkeypatch.setattr(base, "READ_AHEAD", 0)
    assert _simulate(tasks, batch) == (ahead, consumed)
    assert tally["served"] == tally["drawn"] == consumed
    assert read_ahead_draws < tally["draws"]
