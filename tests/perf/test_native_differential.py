"""Whole simulations on the compiled kernels against the numpy path.

Hypothesis draws a tiny machine (1-4 cores, an L2 of at most 64 sets and
1-8 ways, shared or private, sometimes behind a private L1), a task mix
of at most 20k references and, on a shared L2, an XOR-fold k = 1
signature unit. The run is simulated once with every cache and
signature unit on the compiled kernels and once on the numpy reference
path; the ``repr`` of the two ``SimulationResult`` objects and every
context-switch signature sample must be equal.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.cache.config import CacheConfig, CacheGeometry, tiny_cache
from repro.core.signature import SignatureConfig
from repro.faults.injectors import SignatureFaultInjector
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.workloads.patterns import (
    HotColdGenerator,
    PointerChaseGenerator,
    StreamGenerator,
)
from tests.engines import on_engine

pytestmark = pytest.mark.skipif(
    native.load() is None, reason="compiled kernels unavailable"
)

#: Reference budget of one drawn run, over all of its tasks.
MAX_REFERENCES = 20_000


class SampleRecorder(SignatureFaultInjector):
    """A no-op injector that keeps every outgoing context-switch sample."""

    def __init__(self):
        super().__init__()
        self.samples = []

    def transform_sample(self, unit, core, sample):
        self.samples.append((core, sample.occupancy, list(sample.symbiosis)))
        return sample


@st.composite
def runs(draw):
    """A machine, a mix of task recipes and the run's options."""
    cores = draw(st.integers(1, 4))
    sets = 1 << draw(st.integers(0, 6))
    ways = draw(st.integers(1, 8))
    shared = draw(st.booleans())
    l1 = None
    if draw(st.booleans()):
        l1 = tiny_cache(sets=1 << draw(st.integers(0, 2)), ways=draw(st.integers(1, 2)))
    signature = shared and sets * ways >= 2 and draw(st.booleans())
    region = 4 * sets * ways
    recipes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["hotcold", "stream", "chase"]),
                st.integers(1, region),
                st.integers(1, MAX_REFERENCES // 4),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=6,
        )
    )
    timeslice = draw(st.sampled_from([20_000.0, 200_000.0, 5_000_000.0]))
    return cores, sets, ways, shared, l1, signature, recipes, timeslice


def _task(i, kind, region, accesses, seed):
    base = (i + 1) << 20
    if kind == "hotcold":
        generator = HotColdGenerator(
            region, max(1, region // 4), hot_fraction=0.8, base_block=base, seed=seed
        )
    elif kind == "stream":
        generator = StreamGenerator(region, base_block=base, seed=seed)
    else:
        generator = PointerChaseGenerator(region, base_block=base, seed=seed)
    return SimTask(
        name=f"t{i}",
        generator=generator,
        total_accesses=accesses,
        accesses_per_kinstr=20.0 + i,
        mlp=1.0 + i % 3,
        process_id=i,
        tid=i,
    )


def _simulate(engine, run):
    cores, sets, ways, shared, l1, signature, recipes, timeslice = run
    machine = MachineConfig(
        name="tiny",
        num_cores=cores,
        l2=CacheConfig(
            name="l2",
            geometry=CacheGeometry(
                size_bytes=sets * ways * 64, line_bytes=64, ways=ways
            ),
        ),
        shared_l2=shared,
        l1=l1,
        timing=TimingModel(),
    )
    tasks = [_task(i, *recipe) for i, recipe in enumerate(recipes)]
    recorder = SampleRecorder() if signature else None
    with on_engine(engine):
        simulator = MulticoreSimulator(
            machine,
            tasks,
            signature_config=(
                SignatureConfig(num_cores=cores, num_sets=sets, ways=ways)
                if signature
                else None
            ),
            scheduler_config=SchedulerConfig(
                num_cores=cores, timeslice_cycles=timeslice
            ),
            signature_injector=recorder,
        )
    kernel = engine == "kernel"
    assert (simulator.caches[0]._lru_batch is not None) == kernel
    if signature:
        assert (simulator.signature_unit._cbf_events is not None) == kernel
    result = simulator.run()
    return repr(result), recorder.samples if recorder else None


@given(run=runs())
@example(
    # Four cores on one 8-way set, three tasks contending through a
    # 1-way L1, with the signature unit attached.
    run=(4, 1, 8, True, tiny_cache(sets=1, ways=1), True,
         [("hotcold", 32, 5000, 1), ("stream", 32, 5000, 2), ("chase", 9, 5000, 3)],
         20_000.0),
)
@example(
    # Private direct-mapped L2s of 64 sets, more tasks than cores.
    run=(2, 64, 1, False, None, False,
         [("chase", 256, 4000, 5), ("stream", 64, 4000, 6), ("hotcold", 200, 4000, 7)],
         200_000.0),
)
@settings(max_examples=40, deadline=None)
def test_kernel_and_numpy_runs_are_identical(run):
    kernel = _simulate("kernel", run)
    reference = _simulate("numpy", run)
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
