"""Closed-loop multi-core performance simulation.

This replaces the paper's two hardware platforms (and its Simics phase):
cores advance on private virtual clocks, the globally least-advanced core
executes the next batch of its current task's reference stream against the
(shared or private) L2, and the resulting hit/miss counts feed the timing
model — so cache pollution between concurrently running tasks feeds back
into their user times exactly like on the real machine.

Key mechanics:

* **Interleaving** — always stepping the least-advanced runnable core keeps
  cross-core access interleaving consistent with the virtual clocks at
  batch granularity.
* **Scheduling** — the :class:`~repro.sched.os_model.OSScheduler` rotates
  each core's run queue when the quantum expires (or the task finishes a
  run), snapshotting the signature hardware at every switch.
* **Restart semantics** — finished tasks restart until every task has
  completed at least once (paper Section 4.2); reported user time is the
  first completion's cycle count.
* **Monitoring** — an optional user-level monitor object is invoked every
  ``interval_cycles`` of virtual wall time (the paper's 100 ms allocator
  period, scaled), sees the syscall interface, and may re-pin tasks.

Where the process has the compiled kernels, :mod:`repro.perf.segment`
runs the loop in C from one scheduler event to the next, entered at a
batch it can serve; the per-batch loop below handles each event and
every batch the kernel cannot serve, and runs whole runs outside the
kernel's scope. Both compute the same results.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

# Wall-clock is banned in the simulation core (lint rule RPR601): results
# must be a pure function of the seed. The perf_counter reads below are the
# one sanctioned exception — every call site is behind the telemetry guard
# (``tel``/``prof`` is None on the disabled fast path) and feeds only the
# PhaseProfile/metrics side channel, never simulated time or results; each
# site is waived individually with ``# repro: noqa[RPR601]`` so any *new*
# clock read still fails the linter.
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import native
from repro.cache.cache import SetAssociativeCache
from repro.core.signature import SignatureConfig, SignatureStats, SignatureUnit
from repro.errors import ConfigurationError, SimulationError
from repro.perf.machine import MachineConfig
from repro.perf.segment import SEGMENT_END, segment_for
from repro.sched.affinity import Mapping
from repro.sched.os_model import OSScheduler, SchedulerConfig
from repro.sched.process import SimTask
from repro.sched.syscall import SyscallInterface
from repro.telemetry.context import current as telemetry_current
from repro.telemetry.metrics import DURATION_BUCKETS
from repro.telemetry.profiler import PhaseProfile
from repro.utils.validation import require_positive

#: Bucket boundaries for the per-batch L2 miss-count histogram (a batch
#: is at most ``batch_accesses`` references, 256 by default).
L2_BATCH_MISS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Bucket boundaries for the CBF occupancy histogram (resident lines
#: observed at each monitor invocation).
CBF_OCCUPANCY_BUCKETS = (
    0.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0
)

__all__ = ["TaskResult", "SimulationResult", "MulticoreSimulator"]


@dataclass(frozen=True)
class TaskResult:
    """Final per-task accounting of one simulation."""

    name: str
    tid: int
    process_id: int
    first_completion_cycles: Optional[float]
    user_cycles: float
    completions: int
    context_switches: int


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one :meth:`MulticoreSimulator.run`."""

    machine: str
    wall_cycles: float
    tasks: List[TaskResult]
    l2_miss_rate: float
    decisions: List[Mapping] = field(default_factory=list)
    majority_mapping: Optional[Mapping] = None
    signature_stats: Optional[SignatureStats] = None
    #: Structured degradation events recorded by the monitor (empty for
    #: healthy runs and for runs without a monitor).
    degradations: List[dict] = field(default_factory=list)

    def task(self, name: str) -> TaskResult:
        """Look up a task result by name (first match)."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r}")

    def user_time(self, name: str) -> float:
        """First-completion user time (cycles) of the named task."""
        t = self.task(name)
        if t.first_completion_cycles is None:
            raise SimulationError(f"task {name!r} never completed")
        return t.first_completion_cycles

    def process_user_time(self, process_id: int) -> float:
        """Slowest-thread first-completion time of one process."""
        times = [
            t.first_completion_cycles
            for t in self.tasks
            if t.process_id == process_id
        ]
        if not times or any(x is None for x in times):
            raise SimulationError(f"process {process_id} never completed")
        return max(times)


class MulticoreSimulator:
    """Drives tasks over a machine model to completion.

    Parameters
    ----------
    machine:
        Platform description (cores, L2 sharing, timing).
    tasks:
        The mix to execute. Runtime state is reset on construction.
    mapping:
        Optional pinned task→core mapping (phase-2 runs); defaults to
        round-robin placement in task order (the "default schedule").
    signature_config:
        Attach Bloom-filter signature hardware (phase-1 runs). Requires a
        shared L2, as in the paper.
    monitor:
        Optional user-level monitor with an ``interval_cycles`` attribute
        and an ``invoke(syscall) -> Optional[Mapping]`` method.
    scheduler_config:
        Timeslice/switch-cost override.
    batch_accesses:
        References simulated per scheduling step (interleaving grain).
    signature_injector:
        Optional :class:`~repro.faults.injectors.SignatureFaultInjector`
        attached to the signature unit (fault-injection runs only;
        requires ``signature_config``).
    """

    def __init__(
        self,
        machine: MachineConfig,
        tasks: Sequence[SimTask],
        *,
        mapping: Optional[Mapping] = None,
        signature_config: Optional[SignatureConfig] = None,
        monitor=None,
        scheduler_config: Optional[SchedulerConfig] = None,
        batch_accesses: int = 256,
        signature_injector=None,
    ):
        if not tasks:
            raise ConfigurationError("need at least one task")
        self.machine = machine
        self.tasks = list(tasks)
        self.batch_accesses = require_positive(batch_accesses, "batch_accesses")
        n = machine.num_cores

        if machine.shared_l2:
            shared = SetAssociativeCache(machine.l2, num_cores=n)
            self.caches: List[SetAssociativeCache] = [shared] * n
            self._shared_cache = shared
        else:
            self.caches = [
                SetAssociativeCache(machine.l2, num_cores=1) for _ in range(n)
            ]
            self._shared_cache = None
        # Optional private L1s: filter each core's stream before the L2
        # (the signature hardware then observes the true L2 miss stream).
        if machine.l1 is not None:
            self._l1s: Optional[List[SetAssociativeCache]] = [
                SetAssociativeCache(machine.l1, num_cores=1) for _ in range(n)
            ]
        else:
            self._l1s = None

        self.signature_unit: Optional[SignatureUnit] = None
        if signature_config is not None:
            if not machine.shared_l2:
                raise ConfigurationError(
                    "signature hardware monitors a shared L2 (paper Sec 3.1)"
                )
            if signature_config.num_cores != n:
                raise ConfigurationError(
                    "signature_config.num_cores must match the machine"
                )
            self.signature_unit = SignatureUnit(signature_config)
        if signature_injector is not None:
            if self.signature_unit is None:
                raise ConfigurationError(
                    "signature_injector requires signature_config"
                )
            self.signature_unit.attach_injector(signature_injector)

        self.scheduler = OSScheduler(
            scheduler_config or SchedulerConfig(num_cores=n),
            signature_unit=self.signature_unit,
        )
        self.syscall = SyscallInterface(self.scheduler)
        self.monitor = monitor

        for task in self.tasks:
            task.reset_runtime()
        if mapping is not None:
            by_tid = {t.tid: t for t in self.tasks}
            placed = set()
            for core, group in enumerate(mapping.groups):
                # Sorted: a frozenset of tids iterates in an order that
                # depends on the absolute tid values, not their ranks.
                for tid in sorted(group):
                    if tid not in by_tid:
                        raise ConfigurationError(f"mapping names unknown task {tid}")
                    self.scheduler.add_task(by_tid[tid], core)
                    placed.add(tid)
            for task in self.tasks:  # any unmapped tasks balance out
                if task.tid not in placed:
                    self.scheduler.add_task(task)
        else:
            for i, task in enumerate(self.tasks):
                self.scheduler.add_task(task, i % n)

        self.core_time = np.zeros(n, dtype=np.float64)
        self._intensity = np.zeros(n, dtype=np.float64)  # misses/cycle EMA
        # The kernels, when the caches took them at construction.
        self._kernels = native.load() if self._shared_cache is not None else None
        #: Batches the compiled loop ran, over every run of this simulator.
        self._segment_batches = 0

    # ------------------------------------------------------------------
    def run(
        self,
        max_wall_cycles: Optional[float] = None,
        min_wall_cycles: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate until every task completed once (or the wall limit).

        *min_wall_cycles* keeps the run going (tasks keep restarting) even
        after every task has completed — phase-1 signature gathering uses
        this to collect enough allocator decisions for a stable majority
        vote.
        """
        timing = self.machine.timing
        sched = self.scheduler
        batch = self.batch_accesses
        decisions: List[Mapping] = []
        interval = getattr(self.monitor, "interval_cycles", None)
        next_invocation = interval if interval else None

        # Telemetry is opt-in: `tel` is None on the default path, and every
        # instrumented point below is a single `is not None` branch — the
        # simulated state is never touched, so results are bit-identical
        # with telemetry on or off.
        tel = telemetry_current()
        tracer = tel.tracer if tel is not None else None
        metrics = tel.metrics if tel is not None else None
        prof = PhaseProfile() if tel is not None else None
        miss_hist = (
            metrics.histogram(
                "sim_l2_batch_misses", L2_BATCH_MISS_BUCKETS,
                help="L2 misses per simulated batch",
            )
            if metrics is not None
            else None
        )
        occupancy_hist = (
            metrics.histogram(
                "sim_cbf_occupancy_lines", CBF_OCCUPANCY_BUCKETS,
                help="CBF-tracked resident lines at each monitor invocation",
            )
            if metrics is not None and self.signature_unit is not None
            else None
        )
        run_span = (
            tracer.begin(
                "simulator.run",
                machine=self.machine.name,
                tasks=len(self.tasks),
                monitored=self.monitor is not None,
            )
            if tracer is not None
            else None
        )
        run_started = perf_counter()  # repro: noqa[RPR601]
        l2_accesses = 0
        # Core clocks and miss intensities run as arrays of the same
        # doubles the numpy arrays hold, which the compiled loop shares,
        # and are written back when the run ends.
        core_time = array("d", self.core_time.tolist())
        intensity = array("d", self._intensity.tolist())
        ema = timing.intensity_ema
        switch_cycles = sched.config.context_switch_cycles
        unit = self.signature_unit
        # Enabled runs sum phase seconds and op counts in locals and hand
        # them to `prof` and the batch-miss histogram once, when the run
        # ends. Each phase ends at the clock read that starts the next.
        interleave_s = trace_s = l2_s = signature_s = timing_s = monitor_s = 0.0
        batches = refs = invocations = 0
        batch_misses: List[int] = []
        all_done = all(t.completed_once for t in self.tasks)
        segment = segment_for(
            self, self._kernels, core_time, intensity,
            min_wall_cycles=min_wall_cycles, max_wall_cycles=max_wall_cycles,
            telemetry=prof is not None,
        )
        if prof is not None:
            t0 = perf_counter()  # repro: noqa[RPR601]
        try:
            while True:
                runnable = sched.runnable_cores()
                if not runnable:
                    break
                # wall = least-advanced runnable core; it executes next.
                core = min(runnable, key=core_time.__getitem__)
                wall = core_time[core]
                if max_wall_cycles is not None and wall >= max_wall_cycles:
                    break
                if next_invocation is not None and wall >= next_invocation:
                    if prof is not None:
                        t1 = perf_counter()  # repro: noqa[RPR601]
                        interleave_s += t1 - t0
                    decision = self.monitor.invoke(self.syscall)
                    if decision is not None:
                        decisions.append(decision.canonical())
                    if prof is not None:
                        t0 = perf_counter()  # repro: noqa[RPR601]
                        elapsed = t0 - t1
                        monitor_s += elapsed
                        invocations += 1
                        if metrics is not None:
                            metrics.histogram(
                                "sim_monitor_invoke_seconds", DURATION_BUCKETS,
                                help="wall time of one monitor invocation "
                                "(mapping-decision latency)",
                            ).observe(elapsed)
                        if occupancy_hist is not None:
                            occupancy_hist.observe(float(unit.total_occupancy()))
                    next_invocation += interval
                    continue

                task = sched.current_task(core)
                n = min(batch, task.remaining_accesses)
                if segment is not None and segment.serves(task):
                    # The compiled loop runs from this batch until the
                    # next step needs Python: a quantum expired, the run
                    # ended, or the loop must handle the next batch.
                    ran = segment.batches
                    status = segment.run(next_invocation, all_done)
                    if prof is not None:
                        batch_misses += segment.drain_misses()
                        t1 = perf_counter()  # repro: noqa[RPR601]
                        interleave_s += t1 - t0
                        t0 = t1
                    if status >= 0:
                        sched.context_switch(status)
                        core_time[status] += switch_cycles
                        if prof is not None:
                            t0 = perf_counter()  # repro: noqa[RPR601]
                            timing_s += t0 - t1
                        if all_done and (
                            min_wall_cycles is None
                            or max(core_time) >= min_wall_cycles
                        ):
                            break
                        continue
                    if status == SEGMENT_END:
                        break
                    if segment.batches > ran:
                        continue
                    # The kernel handed this batch back untouched (it
                    # raises below, or its read-ahead is not int64).
                if prof is not None:
                    t1 = perf_counter()  # repro: noqa[RPR601]
                    interleave_s += t1 - t0
                    batches += 1
                blocks = task.generator.next_batch(n)
                if prof is not None:
                    t0 = t1
                    t1 = perf_counter()  # repro: noqa[RPR601]
                    trace_s += t1 - t0
                    refs += n
                l1_hits = 0
                if self._l1s is not None:
                    l1_result = self._l1s[core].access_batch(0, blocks)
                    l1_hits = l1_result.hits
                    blocks = l1_result.fills  # only L1 misses reach the L2
                if len(blocks):
                    result = self.caches[core].access_batch(
                        core if self._shared_cache is not None else 0, blocks
                    )
                    l2_hits, l2_misses = result.hits, result.misses
                else:
                    result = None
                    l2_hits = l2_misses = 0
                if prof is not None:
                    t2 = perf_counter()  # repro: noqa[RPR601]
                    l2_s += t2 - t1
                    l2_accesses += len(blocks)
                    batch_misses.append(l2_misses)
                if unit is not None and result is not None:
                    unit.record_events(
                        core,
                        result.fills,
                        result.fill_slots,
                        result.evictions,
                        result.evict_slots,
                    )
                if prof is not None:
                    t3 = perf_counter()  # repro: noqa[RPR601]
                    signature_s += t3 - t2
                other = 0.0
                for c in runnable:
                    if c != core:
                        other += intensity[c]
                cycles = timing.batch_cycles(
                    instructions=task.instructions_for(n),
                    l2_hits=l2_hits,
                    l2_misses=l2_misses,
                    mlp=task.mlp,
                    other_intensity=other,
                    l1_hits=l1_hits,
                )
                if cycles <= 0:
                    raise SimulationError("non-positive batch cycle count")
                intensity[core] = (
                    (1 - ema) * intensity[core] + ema * (l2_misses / cycles)
                )
                core_time[core] += cycles
                completed = task.advance(n, cycles)
                expired = sched.charge(core, cycles)
                if expired or completed:
                    sched.context_switch(core)
                    core_time[core] += switch_cycles
                if completed:
                    all_done = all(t.completed_once for t in self.tasks)
                if prof is not None:
                    t0 = perf_counter()  # repro: noqa[RPR601]
                    timing_s += t0 - t3
                if all_done:
                    if min_wall_cycles is None or max(core_time) >= min_wall_cycles:
                        break
        finally:
            self.core_time[:] = core_time
            self._intensity[:] = intensity
            if segment is not None:
                ran = segment.batches
                self._segment_batches += ran
                if prof is not None:
                    # The kernel's time sits in interleave until here.
                    seconds = segment.phase_seconds()
                    interleave_s -= sum(seconds)
                    trace_s += seconds[0]
                    l2_s += seconds[1]
                    signature_s += seconds[2]
                    timing_s += seconds[3]
                    batches += ran
                    refs += ran * batch
                    l2_accesses += ran * batch
            if tel is not None:
                if miss_hist is not None:
                    for misses in batch_misses:
                        miss_hist.observe(misses)
                prof.add("interleave", interleave_s, batches)
                prof.add("trace_gen", trace_s, refs)
                prof.add("l2_access", l2_s, l2_accesses)
                if unit is not None:
                    prof.add("signature", signature_s, batches)
                prof.add("timing", timing_s, batches)
                prof.add("monitor", monitor_s, invocations)
                self._emit_telemetry(
                    tel, prof, run_span, run_started, l2_accesses
                )

        majority = None
        if decisions:
            counts: Dict[Mapping, int] = {}
            for d in decisions:
                counts[d] = counts.get(d, 0) + 1
            majority = max(counts.items(), key=lambda kv: kv[1])[0]

        if self._shared_cache is not None:
            miss_rate = self._shared_cache.stats.miss_rate()
        else:
            hits = sum(c.stats.total_hits for c in self.caches)
            misses = sum(c.stats.total_misses for c in self.caches)
            miss_rate = misses / (hits + misses) if hits + misses else 0.0

        return SimulationResult(
            machine=self.machine.name,
            wall_cycles=float(self.core_time.max()) if len(self.core_time) else 0.0,
            tasks=[
                TaskResult(
                    name=t.name,
                    tid=t.tid,
                    process_id=t.process_id,
                    first_completion_cycles=t.first_completion_cycles,
                    user_cycles=t.user_cycles,
                    completions=t.completions,
                    context_switches=t.context_switches,
                )
                for t in self.tasks
            ],
            l2_miss_rate=miss_rate,
            decisions=decisions,
            majority_mapping=majority,
            signature_stats=(
                self.signature_unit.stats if self.signature_unit else None
            ),
            degradations=list(getattr(self.monitor, "degradations", ()) or ()),
        )

    def _emit_telemetry(
        self, tel, prof, run_span, run_started: float, l2_accesses: int
    ) -> None:
        """Flush one run's aggregate telemetry (enabled runs only).

        Emits the phase breakdown (spans + counters), the simulator-level
        metrics — L2 accesses/sec, CBF occupancy, run/batch tallies — and
        closes the ``simulator.run`` span. Never called on the disabled
        path.
        """
        elapsed = perf_counter() - run_started  # repro: noqa[RPR601]
        metrics = tel.metrics
        if metrics is not None:
            metrics.counter(
                "sim_runs_total", help="simulator runs completed"
            ).inc()
            metrics.counter(
                "sim_batches_total", help="scheduling batches executed"
            ).inc(prof.ops("interleave"))
            metrics.counter(
                "sim_l2_accesses_total", help="references reaching the L2"
            ).inc(l2_accesses)
            metrics.gauge(
                "sim_l2_accesses_per_second",
                help="L2 references simulated per wall second (last run)",
            ).set(l2_accesses / elapsed if elapsed > 0 else 0.0)
            metrics.gauge(
                "sim_wall_cycles",
                help="virtual wall cycles of the last run",
            ).set(float(self.core_time.max()) if len(self.core_time) else 0.0)
            if self.signature_unit is not None:
                metrics.gauge(
                    "sim_cbf_occupancy_final_lines",
                    help="CBF-tracked resident lines at run end",
                ).set(float(self.signature_unit.total_occupancy()))
            prof.emit_metrics(metrics)
        if tel.tracer is not None and run_span is not None:
            prof.emit_spans(tel.tracer, run_span.start)
            tel.tracer.end(run_span)
