"""Whole simulations on the compiled kernels against the numpy path.

Hypothesis draws a tiny machine (1-4 cores, an L2 of at most 64 sets and
1-8 ways, shared or private, sometimes behind a private L1), a task mix
of at most 20k references (tasks with a read-ahead beside a mixture
task that keeps none), a batch size, a timeslice, wall limits, sometimes
a monitor that migrates tasks and, on a shared L2, an XOR-fold k = 1
signature unit. The run is simulated once with every cache and
signature unit on the compiled kernels, where the shared-L2 runs
without L1s run their batches in the compiled loop (``run_segment``)
between scheduler events, and once on the numpy reference path; the
``repr`` of the two ``SimulationResult`` objects and every
context-switch signature sample must be equal.

Further checks pin where the compiled loop runs: a replaced
``access_batch``, ``record_events`` or ``next_batch`` puts the run on
the per-batch loop, which passes every reference through the
replacement; a task without read-ahead costs no kernel call; single
batches cost the cycles Python charges, bit for bit; and errors raised
inside a segment keep their type, text and the state they leave.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, CacheGeometry, tiny_cache
from repro.core.signature import SignatureConfig, SignatureUnit
from repro.errors import ConfigurationError, SimulationError
from repro.perf.machine import MachineConfig
from repro.perf.segment import Segment
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.telemetry import MetricsRegistry, TelemetryContext, use
from repro.workloads.base import TraceGenerator
from repro.workloads.patterns import (
    HotColdGenerator,
    MixtureGenerator,
    PointerChaseGenerator,
    RandomRegionGenerator,
    StreamGenerator,
)
from tests.engines import on_engine

pytestmark = pytest.mark.skipif(
    native.load() is None, reason="compiled kernels unavailable"
)

#: Reference budget of one drawn run, over all of its tasks.
MAX_REFERENCES = 20_000


class MigratingMonitor:
    """A stub monitor: each call moves one task (in turn) to the next core
    and, every other call, reports the placement as its decision."""

    def __init__(self, interval_cycles):
        self.interval_cycles = interval_cycles
        self.calls = 0

    def invoke(self, syscall):
        placement = syscall.current_placement()
        tids = sorted(placement)
        tid = tids[self.calls % len(tids)]
        syscall.set_affinity(tid, (placement[tid] + 1) % syscall.num_cores)
        self.calls += 1
        if self.calls % 2:
            return None
        return Mapping.from_groups(
            [[t for t in tids if placement[t] == c] for c in range(syscall.num_cores)]
        )


def _record_samples(unit):
    """Keep every context-switch sample of *unit* (the compiled loop never
    takes one: the scheduler does, in Python)."""
    samples = []
    take = unit.on_context_switch

    def on_context_switch(core):
        sample = take(core)
        samples.append((core, sample.occupancy, list(sample.symbiosis)))
        return sample

    unit.on_context_switch = on_context_switch
    return samples


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
                st.sampled_from(["hotcold", "stream", "chase", "mixture"]),
                st.integers(1, region),
                st.integers(1, MAX_REFERENCES // 4),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=6,
        )
    )
    options = dict(
        timeslice=draw(st.sampled_from([20_000.0, 200_000.0, 5_000_000.0])),
        batch=draw(st.sampled_from([16, 64, 256])),
        monitor=draw(st.sampled_from([None, 30_000.0, 300_000.0])),
        min_wall=draw(st.sampled_from([None, 2e6])),
        max_wall=draw(st.sampled_from([None, 3e5])),
    )
    return cores, sets, ways, shared, l1, signature, recipes, options


def _task(i, kind, region, accesses, seed):
    base = (i + 1) << 20
    if kind == "hotcold":
        generator = HotColdGenerator(
            region, max(1, region // 4), hot_fraction=0.8, base_block=base, seed=seed
        )
    elif kind == "stream":
        generator = StreamGenerator(region, base_block=base, seed=seed)
    elif kind == "chase":
        generator = PointerChaseGenerator(region, base_block=base, seed=seed)
    else:  # split-invariant at 16 references only: no read-ahead
        generator = MixtureGenerator(
            [
                PointerChaseGenerator(region, seed=seed + 1),
                RandomRegionGenerator(region, seed=seed + 2),
            ],
            weights=[0.7, 0.3],
            base_block=base,
            seed=seed,
        )
    return SimTask(
        name=f"t{i}",
        generator=generator,
        total_accesses=accesses,
        accesses_per_kinstr=20.0 + i,
        mlp=1.0 + i % 3,
        process_id=i,
        tid=i,
    )


def _machine(cores, sets, ways, shared, l1, timing=None):
    return MachineConfig(
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
        timing=timing or TimingModel(),
    )


def _simulate(engine, run):
    """``(repr of the result, signature samples, the simulator)``."""
    cores, sets, ways, shared, l1, signature, recipes, options = run
    tasks = [_task(i, *recipe) for i, recipe in enumerate(recipes)]
    monitor = options["monitor"]
    with on_engine(engine):
        simulator = MulticoreSimulator(
            _machine(cores, sets, ways, shared, l1),
            tasks,
            signature_config=(
                SignatureConfig(num_cores=cores, num_sets=sets, ways=ways)
                if signature
                else None
            ),
            monitor=MigratingMonitor(monitor) if monitor else None,
            scheduler_config=SchedulerConfig(
                num_cores=cores, timeslice_cycles=options["timeslice"]
            ),
            batch_accesses=options["batch"],
        )
    kernel = engine == "kernel"
    assert (simulator.caches[0]._lru_batch is not None) == kernel
    samples = None
    if signature:
        assert (simulator.signature_unit._cbf_events is not None) == kernel
        samples = _record_samples(simulator.signature_unit)
    result = simulator.run(
        min_wall_cycles=options["min_wall"], max_wall_cycles=options["max_wall"]
    )
    if not (kernel and shared and l1 is None):
        assert simulator._segment_batches == 0
    return repr(result), samples, simulator


@given(run=runs())
@example(
    # Four cores on one 8-way set, three tasks contending through a
    # 1-way L1, with the signature unit attached.
    run=(4, 1, 8, True, tiny_cache(sets=1, ways=1), True,
         [("hotcold", 32, 5000, 1), ("stream", 32, 5000, 2), ("chase", 9, 5000, 3)],
         dict(timeslice=20_000.0, batch=256, monitor=None, min_wall=None,
              max_wall=None)),
)
@example(
    # Private direct-mapped L2s of 64 sets, more tasks than cores.
    run=(2, 64, 1, False, None, False,
         [("chase", 256, 4000, 5), ("stream", 64, 4000, 6), ("hotcold", 200, 4000, 7)],
         dict(timeslice=200_000.0, batch=256, monitor=None, min_wall=None,
              max_wall=None)),
)
@example(
    # A shared L2 with the unit, in the compiled loop between migrations,
    # quantum expiries partway through each read-ahead, restarts up to a
    # minimum wall time and a task without read-ahead.
    run=(2, 16, 4, True, None, True,
         [("hotcold", 200, 4000, 1), ("mixture", 100, 3000, 2),
          ("chase", 150, 5000, 3), ("stream", 256, 2000, 4)],
         dict(timeslice=20_000.0, batch=16, monitor=30_000.0, min_wall=2e6,
              max_wall=None)),
)
@settings(max_examples=40, deadline=None)
def test_kernel_and_numpy_runs_are_identical(run):
    kernel = _simulate("kernel", run)
    reference = _simulate("numpy", run)
    assert kernel[:2] == reference[:2]


#: The third example above: it runs batches on both loops.
LOOP_RUN = (
    2, 16, 4, True, None, True,
    [("hotcold", 200, 4000, 1), ("mixture", 100, 3000, 2),
     ("chase", 150, 5000, 3), ("stream", 256, 2000, 4)],
    dict(timeslice=20_000.0, batch=16, monitor=30_000.0, min_wall=2e6,
         max_wall=None),
)


def _simulated_metrics(engine):
    """The run's metrics snapshot without wall-clock entries, and the
    batches the compiled loop ran."""
    metrics = MetricsRegistry()
    with use(TelemetryContext(metrics=metrics)):
        simulator = _simulate(engine, LOOP_RUN)[2]
    snapshot = metrics.snapshot()
    return {
        name: value for name, value in snapshot.items() if "second" not in name
    }, simulator._segment_batches


def test_telemetry_counts_the_compiled_loop_like_the_per_batch_loop():
    kernel, served = _simulated_metrics("kernel")
    reference, _ = _simulated_metrics("numpy")
    assert kernel == reference
    # Both loops ran batches.
    assert 0 < served < kernel["sim_batches_total"]["value"]


def test_the_compiled_loop_leaves_the_state_of_the_per_batch_loop():
    kernel = _simulate("kernel", LOOP_RUN)[2]
    reference = _simulate("numpy", LOOP_RUN)[2]
    assert kernel._segment_batches > 0
    assert _state(kernel) == _state(reference)


class Gathering:
    """A monitor whose first call pins every task to core 0, which
    empties the other cores (their miss intensities stay as they were)."""

    interval_cycles = 60_000.0

    def invoke(self, syscall):
        for tid in sorted(syscall.current_placement()):
            syscall.set_affinity(tid, 0)


def _exact(engine, monitor=None):
    """Every batch costs 3,800 cycles whether it hits or misses, so two
    cores' clocks tie before every other batch (the first of the
    least-advanced cores runs, as ``min`` picks it) and a 38,000-cycle
    quantum is used up exactly after 10 batches. The tasks restart until
    a minimum wall time well past their first completions."""
    tasks = [
        _task(0, "stream", 256, 6000, 1),
        SimTask(name="hot", generator=HotColdGenerator(64, 16, seed=2),
                total_accesses=6000, accesses_per_kinstr=20.0, tid=1,
                process_id=1),
        _task(3, "chase", 100, 6000, 3),
    ]
    timing = TimingModel(l2_hit_cycles=200.0, queue_coeff=0.0 if monitor is None else 4.0)
    with on_engine(engine):
        simulator = MulticoreSimulator(
            _machine(2, 16, 4, True, None, timing),
            tasks,
            signature_config=SignatureConfig(num_cores=2, num_sets=16, ways=4),
            monitor=monitor,
            scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=38_000.0),
            batch_accesses=16,
        )
    return repr(simulator.run(min_wall_cycles=4e6)), _state(simulator), simulator


@pytest.mark.parametrize("monitor", [None, Gathering], ids=["ties", "emptied"])
def test_ties_exact_quanta_and_emptied_cores_match(monitor):
    kernel = _exact("kernel", monitor and monitor())
    assert kernel[2]._segment_batches > 0
    assert kernel[:2] == _exact("numpy", monitor and monitor())[:2]


def _one_batch_each(engine, seed):
    """Each task's cycles after one batch on each of two cores, the second
    charged against the first's miss intensity. The read-ahead is drawn
    up front, so the compiled loop serves both batches; a one-cycle
    timeslice and wall limit end the run after them."""
    tasks = [
        SimTask(
            name=f"t{i}",
            generator=HotColdGenerator(
                300, 60, hot_fraction=0.7, base_block=(i + 1) << 20,
                seed=2 * seed + i,
            ),
            total_accesses=10_000, accesses_per_kinstr=7.0 + 0.37 * seed + i,
            mlp=1.0 + (seed + i) % 3, tid=i, process_id=i,
        )
        for i in range(2)
    ]
    with on_engine(engine):
        simulator = MulticoreSimulator(
            _machine(2, 16, 4, True, None),
            tasks,
            scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=1.0),
            batch_accesses=16,
        )
    for task in tasks:
        task.generator._draw(1024)
    simulator.run(max_wall_cycles=1.0)
    return [t.user_cycles.hex() for t in tasks], simulator._segment_batches


def test_each_batch_costs_the_cycles_python_charges():
    """A whole run's sums absorb a last-bit difference in one batch's
    cycles (a fused multiply-add, say), so single batches are compared."""
    for seed in range(40):
        kernel, served = _one_batch_each("kernel", seed)
        assert served == 2
        assert kernel == _one_batch_each("numpy", seed)[0], seed


@pytest.mark.parametrize("replaced", ["access_batch", "record_events"])
def test_a_replaced_engine_method_runs_the_per_batch_loop(monkeypatch, replaced):
    expected = _simulate("kernel", LOOP_RUN)
    assert expected[2]._segment_batches > 0
    owner = SetAssociativeCache if replaced == "access_batch" else SignatureUnit
    original = getattr(owner, replaced)
    seen = []

    def wrapper(self, core, *args):
        seen.append(len(args[0]))  # the blocks, or the fills
        return original(self, core, *args)

    monkeypatch.setattr(owner, replaced, wrapper)
    result, samples, simulator = _simulate("kernel", LOOP_RUN)
    assert simulator._segment_batches == 0
    assert (result, samples) == expected[:2]
    if replaced == "access_batch":
        assert sum(seen) == simulator.caches[0].stats.total_accesses
    else:
        assert sum(seen) == simulator.signature_unit.stats.fills_tracked


def test_a_replaced_instance_next_batch_sees_every_reference():
    plain, _ = _instance_run(None)
    served = []
    result, simulator = _instance_run(served)
    assert simulator._segment_batches == 0
    assert result == plain
    task = simulator.tasks[0]
    assert sum(served) == task.completions * task.total_accesses + task.accesses_done


def _instance_run(served):
    """A shared-L2 run; with *served*, the first task's generator records
    each ``next_batch`` length in it through an instance attribute."""
    tasks = [
        _task(0, "hotcold", 200, 3000, 1),
        _task(1, "chase", 150, 4000, 2),
        _task(2, "stream", 256, 2000, 3),
    ]
    if served is not None:
        fetch = tasks[0].generator.next_batch

        def next_batch(n):
            served.append(n)
            return fetch(n)

        tasks[0].generator.next_batch = next_batch
    simulator = MulticoreSimulator(
        _machine(2, 16, 4, True, None),
        tasks,
        signature_config=SignatureConfig(num_cores=2, num_sets=16, ways=4),
        scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=20_000.0),
        batch_accesses=16,
    )
    result = repr(simulator.run(min_wall_cycles=1e6))
    if served is None:
        assert simulator._segment_batches > 0
    return result, simulator


class NegativeAt(TraceGenerator):
    """A read-ahead stream 0, 1, 2, ... whose reference *at* is -7."""

    split_granule = 1

    def __init__(self, at):
        super().__init__()
        self.at = at
        self._pos = 0

    def _generate(self, n):
        out = np.arange(self._pos, self._pos + n, dtype=np.int64) % 97
        if self._pos <= self.at < self._pos + n:
            out[self.at - self._pos] = -7
        self._pos += n
        return out

    def _restart(self):
        self._pos = 0


def _state(simulator):
    """The engine state a run (or a raise) leaves behind: the L2, the
    unit, the tasks and their generators' read-ahead, clocks and quanta."""
    cache = simulator.caches[0]
    return (
        cache.stats.hits.tolist(), cache.stats.misses.tolist(),
        cache.stats.evictions, cache._clock, cache._tags.tolist(),
        cache._stamps.tolist(), cache._tag_owner.tolist(),
        simulator.signature_unit.stats, simulator.signature_unit.counters.tolist(),
        simulator.signature_unit._core_bits.tolist(),
        [(t.accesses_done, t.user_cycles, t.generator.blocks_generated,
          t.generator._ahead_pos, len(t.generator._ahead))
         for t in simulator.tasks],
        simulator.core_time.tolist(), simulator._intensity.tolist(),
        simulator.scheduler.quantum_used,
    )


class Mutating:
    """A monitor whose first call, after *interval_cycles*, sets one
    attribute of every task."""

    def __init__(self, tasks, attr, value, interval_cycles):
        self.tasks, self.attr, self.value = tasks, attr, value
        self.interval_cycles = interval_cycles

    def invoke(self, syscall):
        for task in self.tasks:
            setattr(task, self.attr, self.value)


def _raising_run(engine, generator, mutation=None, cpi_base=0.75):
    tasks = [
        SimTask(name="neg", generator=generator(), total_accesses=100_000,
                accesses_per_kinstr=20.0, tid=0, process_id=0),
        _task(1, "stream", 64, 100_000, 2),
    ]
    timing = TimingModel(cpi_base=cpi_base, l2_hit_cycles=0.0, mem_cycles=0.0)
    with on_engine(engine):
        simulator = MulticoreSimulator(
            _machine(2, 16, 4, True, None, timing),
            tasks,
            signature_config=SignatureConfig(num_cores=2, num_sets=16, ways=4),
            # The monitor first runs after ~50 batches at any CPI.
            monitor=(
                Mutating(tasks, *mutation, 53_333.0 * cpi_base)
                if mutation else None
            ),
            batch_accesses=16,
        )
    with pytest.raises(
        (ConfigurationError, SimulationError, ZeroDivisionError)
    ) as raised:
        # A run that fails to raise ends here, not in a loop of monitor
        # calls behind infinite clocks.
        simulator.run(max_wall_cycles=1e9)
    return type(raised.value), str(raised.value), _state(simulator), simulator


@pytest.mark.parametrize(
    "mutation, cpi_base, error",
    [
        (None, 0.75, "negative block address -7 in access batch"),
        (("accesses_per_kinstr", math.inf), 0.75, "non-positive batch cycle count"),
        # 16,000 / 1e308 instructions at a CPI of 1e-300 round to 0 cycles.
        (("accesses_per_kinstr", 1e308), 1e-300, "non-positive batch cycle count"),
        (("accesses_per_kinstr", 0.0), 0.75, "float division by zero"),
        (("accesses_per_kinstr", -20.0), 0.75, "negative batch quantities"),
        (("mlp", 0.5), 0.75, "mlp must be >= 1.0"),
    ],
)
def test_errors_inside_a_segment_match_the_numpy_path(mutation, cpi_base, error):
    at = 5000 if mutation is None else 10**9
    kernel = _raising_run("kernel", lambda: NegativeAt(at), mutation, cpi_base)
    reference = _raising_run("numpy", lambda: NegativeAt(at), mutation, cpi_base)
    assert kernel[1] == error
    assert kernel[:3] == reference[:3]
    assert kernel[3]._segment_batches > 0


def test_the_compiled_loop_is_entered_only_at_a_batch_it_serves(monkeypatch):
    """Each call runs a batch, so a task without read-ahead costs no call
    when its core is the least advanced, and a run of such tasks none."""
    calls = []
    run = Segment.run

    def counted(self, *args):
        before = self.batches
        status = run(self, *args)
        calls.append(self.batches - before)
        return status

    monkeypatch.setattr(Segment, "run", counted)
    _simulate("kernel", LOOP_RUN)
    assert calls and min(calls) > 0
    calls.clear()
    mixtures = LOOP_RUN[:6] + (
        [("mixture", 100, 3000, 1), ("mixture", 64, 2000, 2)], LOOP_RUN[7]
    )
    assert _simulate("kernel", mixtures)[0] == _simulate("numpy", mixtures)[0]
    assert calls == []
