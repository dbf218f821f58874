"""The benchmark's three workloads and the metrics read from them.

Each workload builds its inputs from the seed alone (:meth:`setup`);
:meth:`run_pass` then performs one fixed unit of work and returns a
:class:`Pass` with its host timings, its deterministic counts and a
digest of its outputs. Every pass of a run repeats the same work, so a
run reports medians over passes. Why each workload exists, and which
layer metric should move which end-to-end metric, is in ``README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.alloc.weight_sort import WeightSortPolicy
from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.analysis.figures import SHOWCASE_MIXES, figure10_native_sweep
from repro.durable.manager import DurabilityManager
from repro.durable.state import capture_state, state_fingerprint
from repro.estimate import reuse
from repro.estimate.analytical import AnalyticalModel
from repro.jobs.orchestrator import Orchestrator
from repro.perf.machine import core2duo
from repro.perf.runner import DEFAULT_INSTRUCTIONS, build_tasks
from repro.sched.affinity import balanced_mappings
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import SettleEvent, event_from_arrival
from repro.workloads.arrivals import poisson_trace
from repro.workloads.spec import spec_profile_names

import speed
from tracing import RefCounter, Tracer, install


class Stopwatch:
    """Wall-clock and process-CPU seconds since construction, with the
    speed probe's own time taken out (see ``speed.py``).

    The gated metrics use CPU time. Every workload runs in one thread, so
    for the CPU-bound sweeps CPU time equals wall time; for the daemon it
    leaves out the time the process sleeps in ``fsync`` waiting for the
    checkout's shared disk, whose latency is not the program's work.
    """

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        self.wall, self.cpu = speed.clocks()

    def read(self) -> Tuple[float, float]:
        wall, cpu = speed.clocks()
        return wall - self.wall, cpu - self.cpu


#: Output digests of one full-size pass on the default seed. A run on
#: seed 0 that produces anything else fails.
DEFAULT_SEED = 0
PINNED_DIGESTS = {
    "fig10-exact":
        "62631176dc9c3504b5d425693dd15326730e56567265018bde2127b6b4a7eaa6",
    "fig10-analytical":
        "5601ef0c3b4e459d2a1e71dee911fddc392debaf6727a3d5594865383907d36b",
    "daemon-wal":
        "2e4dcf6b8ee27a870ca760d525158f7cdaf93266c0c1106e30dfa60b44f6f3df",
}


def digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one pass of a workload did and how long it took."""

    wall_s: float
    cpu_s: float
    ops: int
    #: Wall and CPU seconds the ``ops`` throughputs are taken over.
    busy_wall_s: float
    busy_cpu_s: float
    #: Wall and CPU milliseconds of every request the pass served.
    requests_ms: List[float]
    requests_cpu_ms: List[float]
    digest: str
    attempted: int
    failed: int
    #: Deterministic work counts (identical on every pass of one seed).
    counts: Dict[str, int]
    restarts_ms: List[float] = field(default_factory=list)
    #: The host's slowdown during the pass: the speed probe's mean kernel
    #: time over its reference time (``speed.KERNELS``); ``None`` when no
    #: probe ran.
    slowdown: Optional[float] = None

    def at_reference_speed(self, seconds: float) -> float:
        """*seconds* of this pass's CPU time at the probe's reference
        speed."""
        if self.slowdown is None:
            raise ValueError("pass ran without the speed probe")
        return seconds / self.slowdown


class Fig10Exact:
    """The figure-10 two-phase sweep on the exact engine.

    Each mix runs the way ``repro-cli sweep`` drives it: phase 1 gathers
    CBF signatures under the weighted interference-graph policy, phase 2
    measures every balanced mapping, all through an in-process
    ``Orchestrator(jobs=1)`` with no result cache. Mix ``i`` gets seed
    ``seed + i``, exactly as one sweep call over the whole list would.
    """

    name = "fig10-exact"
    probe_kernel = "interpreter"
    request_metric = "mix_p50_ms"
    op_metric = ("refs_per_s", "refs/s")

    #: The mcf showcase mix, where the paper-shaped 46% mcf gain appears,
    #: and the omnetpp showcase mix: two cache-sensitive benchmarks, each
    #: beside the libquantum polluter.
    MIXES: Tuple[Tuple[str, ...], ...] = tuple(SHOWCASE_MIXES[:2])

    def __init__(
        self,
        seed: int,
        *,
        mixes: Sequence[Sequence[str]] = MIXES,
        instructions: int = DEFAULT_INSTRUCTIONS,
        phase1_min_wall: Optional[float] = None,
    ) -> None:
        self.seed = seed
        self.mixes = [tuple(m) for m in mixes]
        self.instructions = instructions
        self.sweep_kwargs = (
            {} if phase1_min_wall is None
            else {"phase1_min_wall": phase1_min_wall}
        )
        self.full_size = (
            self.mixes == list(self.MIXES)
            and instructions == DEFAULT_INSTRUCTIONS
            and phase1_min_wall is None
        )

    def setup(self, state_dir: Path) -> None:
        """The mixes are fixed; nothing to generate beyond the imports."""

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        refs = RefCounter()
        patches = install(refs, tracer)
        try:
            sweeps, latencies = [], []
            pass_watch = Stopwatch()
            orchestrator = Orchestrator(jobs=1)
            for i, mix in enumerate(self.mixes):
                watch = Stopwatch()
                sweeps.append(
                    figure10_native_sweep(
                        mixes=[mix],
                        policy=WeightedInterferenceGraphPolicy(seed=self.seed),
                        instructions=self.instructions,
                        seed=self.seed + i,
                        orchestrator=orchestrator,
                        **self.sweep_kwargs,
                    )
                )
                latencies.append(watch.read())
            wall, cpu = pass_watch.read()
        finally:
            patches.restore()
        failed, outputs = 0, []
        for sweep in sweeps:
            if sweep.failures.failures or len(sweep.mix_results) != 1:
                failed += 1
                continue
            result = sweep.mix_results[0]
            outputs.append({
                "mix": list(result.names),
                "chosen": str(result.chosen_mapping),
                "decisions": [str(d) for d in result.decisions],
                "degradations": len(result.degradations),
                "user_cycles": {
                    str(mapping): {n: repr(float(c)) for n, c in times.items()}
                    for mapping, times in result.mapping_times.items()
                },
            })
        counts = {"l2_refs": refs.refs, "l2_misses": refs.misses}
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            ops=refs.refs,
            busy_wall_s=wall,
            busy_cpu_s=cpu,
            requests_ms=[w * 1e3 for w, _ in latencies],
            requests_cpu_ms=[c * 1e3 for _, c in latencies],
            digest=digest({"mixes": outputs, **counts}),
            attempted=len(self.mixes),
            failed=failed,
            counts=counts,
        )


class Fig10Analytical:
    """Figure-10 phase-2 pricing at full scale on the analytical backend.

    One pass profiles each of the 12 SPEC tasks once, then prices every
    balanced core2duo mapping of all C(12,4)=495 mixes: one
    ``AnalyticalModel`` per mix, one ``predict`` per mapping.
    """

    name = "fig10-analytical"
    probe_kernel = "numpy"
    request_metric = "mix_pricing_p50_ms"
    op_metric = ("predictions_per_s", "1/s")

    def __init__(
        self,
        seed: int,
        *,
        num_mixes: Optional[int] = None,
        instructions: int = DEFAULT_INSTRUCTIONS,
    ) -> None:
        self.seed = seed
        self.num_mixes = num_mixes
        self.instructions = instructions
        self.full_size = (
            num_mixes is None and instructions == DEFAULT_INSTRUCTIONS
        )

    def setup(self, state_dir: Path) -> None:
        names = spec_profile_names()
        self.tasks = build_tasks(
            names, instructions=self.instructions, seed=self.seed
        )
        self.machine = core2duo()
        self.mixes = list(itertools.combinations(range(len(names)), 4))
        self.mixes = self.mixes[: self.num_mixes]
        self.mappings = [
            m.groups
            for m in balanced_mappings(range(4), self.machine.num_cores)
        ]

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        patches = install(None, tracer)
        try:
            priced, latencies = [], []
            pass_watch = Stopwatch()
            profiles = [reuse.profile_task(task) for task in self.tasks]
            for k, mix in enumerate(self.mixes):
                if tracer is not None:
                    tracer.request = f"mix:{k}"
                watch = Stopwatch()
                model = AnalyticalModel(
                    self.machine, [profiles[i] for i in mix]
                )
                priced.append(
                    (mix, [model.predict(groups) for groups in self.mappings])
                )
                latencies.append(watch.read())
            wall, cpu = pass_watch.read()
        finally:
            patches.restore()
        failed, outputs = 0, []
        for mix, predictions in priced:
            for prediction in predictions:
                failed += not all(
                    math.isfinite(t.user_cycles) and t.user_cycles > 0
                    and 0.0 <= t.miss_rate <= 1.0
                    for t in prediction.tasks
                )
                # 12 significant digits: immune to last-bit differences in
                # vectorised sums, far finer than any model change.
                outputs.append([
                    list(mix),
                    [list(g) for g in prediction.groups],
                    [[t.name, f"{t.user_cycles:.12g}", f"{t.miss_rate:.12g}"]
                     for t in prediction.tasks],
                ])
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            ops=len(outputs),
            busy_wall_s=wall,
            busy_cpu_s=cpu,
            requests_ms=[w * 1e3 for w, _ in latencies],
            requests_cpu_ms=[c * 1e3 for _, c in latencies],
            digest=digest(outputs),
            attempted=len(outputs),
            failed=failed,
            counts={"predictions": len(outputs),
                    "profiled_refs": sum(p.refs for p in profiles)},
        )


class DaemonWal:
    """Durable daemon replay in a closed loop, then repeated restarts.

    A seeded Poisson arrival trace goes through ``SchedulerService`` one
    request in flight at a time (as ``ServiceClient`` callers behave),
    over the direct transport, with every WAL record fsynced and a
    snapshot every 256 events. A settle event ends the replay; the
    daemon then stops without a checkpoint, as a crash would leave it,
    and is restarted ``restarts`` times with ``SchedulerService.recover``.
    """

    name = "daemon-wal"
    probe_kernel = "interpreter"
    request_metric = "event_p50_ms"
    op_metric = ("events_per_s", "events/s")

    SNAPSHOT_INTERVAL = 256

    def __init__(
        self, seed: int, *, checkpoints: int = 16, restarts: int = 10
    ) -> None:
        self.seed = seed
        # Trace events plus the settle event end one event short of a
        # checkpoint, so every restart replays the longest WAL tail the
        # snapshot interval allows.
        self.trace_events = (checkpoints + 1) * self.SNAPSHOT_INTERVAL - 2
        self.tail = self.SNAPSHOT_INTERVAL - 1
        self.restarts = restarts
        self.full_size = checkpoints == 16 and restarts == 10
        self.config = ServiceConfig(num_cores=4)
        self._passes = 0

    def _durability(self, state_dir: Path) -> DurabilityManager:
        return DurabilityManager(
            state_dir, snapshot_interval=self.SNAPSHOT_INTERVAL, fsync_every=1
        )

    def setup(self, state_dir: Path) -> None:
        """Generate the arrival trace and bring one daemon up to serving."""
        self.state_root = Path(state_dir)
        trace = poisson_trace(self.trace_events, seed=self.seed)
        self.events = [(a.seq, event_from_arrival(a)) for a in trace]
        service = SchedulerService(
            WeightSortPolicy(), self.config,
            durability=self._durability(self.state_root / "start"),
        )

        async def start_stop() -> None:
            await service.start()
            await service.stop(drain=True)

        asyncio.run(start_stop())
        shutil.rmtree(self.state_root / "start", ignore_errors=True)

    async def _replay(self, service, tracer, latencies):
        """Closed-loop replay; returns (settle result, (wall, cpu), rejected)."""
        rejected = 0
        await service.start()
        try:
            replay_watch = Stopwatch()
            for seq, event in [*self.events, ("settle", SettleEvent())]:
                if tracer is not None:
                    tracer.request = f"event:{seq}"
                    frame = tracer.begin("service.event")
                watch = Stopwatch()
                result = await service.submit_event(event)
                latencies.append(watch.read())
                if tracer is not None:
                    first_child = frame[4]
                    tracer.end(frame)
                    if first_child is not None:
                        tracer.samples["service.queue_wait_ms"].append(
                            (first_child - frame[1]) / 1e6
                        )
                rejected += not result.get("ok")
            elapsed = replay_watch.read()
        finally:
            await service.stop(drain=True)
        return result, elapsed, rejected

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        self._passes += 1
        state_dir = self.state_root / f"pass-{self._passes}"
        durability = self._durability(state_dir)
        service = SchedulerService(
            WeightSortPolicy(), self.config, durability=durability
        )
        patches = install(None, tracer)
        latencies: List[Tuple[float, float]] = []
        restarts: List[Tuple[float, float]] = []
        recovered: List[Any] = []
        try:
            settle, (replay_wall, replay_cpu), rejected = asyncio.run(
                self._replay(service, tracer, latencies)
            )
            crashed = state_fingerprint(capture_state(service))
            for r in range(self.restarts):
                if tracer is not None:
                    tracer.request = f"restart:{r}"
                watch = Stopwatch()
                restarted = SchedulerService.recover(
                    WeightSortPolicy(), self.config, state_dir=state_dir,
                    snapshot_interval=self.SNAPSHOT_INTERVAL,
                )
                restarts.append(watch.read())
                recovered.append(restarted)
        finally:
            patches.restore()
        wal = durability.wal
        bad_restarts = sum(
            state_fingerprint(capture_state(s)) != crashed
            or s.recovered_events != self.tail
            for s in recovered
        )
        processed = service.events_processed
        failed = (
            rejected + service.events_dropped + bad_restarts
            + (settle["mapping"] != settle["oracle"])
            + (wal.records_written != processed)
            + (wal.fsyncs != wal.records_written)
        )
        counts = {
            "events": processed,
            "wal_records": wal.records_written,
            "fsyncs": wal.fsyncs,
            "snapshots": durability.snapshots.writes,
            "full_remaps": service.mapper.full_remaps,
            "incremental_remaps": service.mapper.incremental_updates,
            "replayed_events": sum(s.recovered_events for s in recovered),
        }
        if tracer is not None:
            tracer.counts["durable.wal.fsyncs"] += wal.fsyncs
        shutil.rmtree(state_dir, ignore_errors=True)
        return Pass(
            wall_s=replay_wall + sum(w for w, _ in restarts),
            cpu_s=replay_cpu + sum(c for _, c in restarts),
            ops=processed,
            busy_wall_s=replay_wall,
            busy_cpu_s=replay_cpu,
            requests_ms=[w * 1e3 for w, _ in latencies],
            requests_cpu_ms=[c * 1e3 for _, c in latencies],
            digest=digest({
                "mapping": settle["mapping"],
                "oracle": settle["oracle"],
                "fingerprint": crashed,
                **counts,
            }),
            attempted=processed + self.restarts,
            failed=failed,
            counts=counts,
            restarts_ms=[w * 1e3 for w, _ in restarts],
        )


WORKLOADS = {w.name: w for w in (Fig10Exact, Fig10Analytical, DaemonWal)}


# -- metrics ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than ten samples
    lie beyond it (the highest percentile worth reporting)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if not ordered or len(ordered) - rank < 10:
        return None
    return float(ordered[rank - 1])


END_TO_END_UNITS = {"setup_s": "s", "norm_cpu_s": "s",
                    "ops_per_norm_cpu_s": "1/s",
                    "request_norm_cpu_p50_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(passes: List[Pass], setup_samples: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """The gated end-to-end metrics, named alike for every workload.

    Times are process-CPU time at the reference speed
    (:meth:`Pass.at_reference_speed`); ``setup_s`` is wall time from
    process spawn to ready.
    """
    requests = [p.at_reference_speed(ms) for p in passes
                for ms in p.requests_cpu_ms]
    return {
        "setup_s": statistics.median(setup_samples),
        "norm_cpu_s": statistics.median(
            p.at_reference_speed(p.cpu_s) for p in passes
        ),
        "ops_per_norm_cpu_s": statistics.median(
            p.ops / p.at_reference_speed(p.busy_cpu_s) for p in passes
        ),
        "request_norm_cpu_p50_ms": statistics.median(requests),
        "peak_rss_mb": peak_rss_mb,
    }


def cpu_metrics(passes: List[Pass]) -> Dict[str, Any]:
    """The same times unscaled, and the median slowdown of the host
    against the probe's reference speed (above 1: slower); printed in
    the report, not gated."""
    requests = [ms for p in passes for ms in p.requests_cpu_ms]
    return {
        "cpu_s": {"value": statistics.median(p.cpu_s for p in passes),
                  "unit": "s", "samples": len(passes)},
        "ops_per_cpu_s": {"value": statistics.median(
            p.ops / p.busy_cpu_s for p in passes), "unit": "1/s"},
        "request_cpu_p50_ms": {"value": statistics.median(requests),
                               "unit": "ms", "samples": len(requests)},
        "slowdown_vs_reference": {"value": statistics.median(
            p.slowdown for p in passes), "unit": "ratio"},
    }


def wall_clock_metrics(workload, passes: List[Pass]) -> Dict[str, Any]:
    """The workload's own wall-clock metrics (refs_per_s, event_p99_ms, ...)
    as an operator sees them; printed in the report, not gated."""
    metric, unit = workload.op_metric
    requests = [ms for p in passes for ms in p.requests_ms]
    out: Dict[str, Any] = {
        "wall_s": {"value": statistics.median(p.wall_s for p in passes),
                   "unit": "s", "samples": len(passes)},
        metric: {"value": statistics.median(p.ops / p.busy_wall_s
                                            for p in passes),
                 "unit": unit},
        workload.request_metric: {"value": statistics.median(requests),
                                  "unit": "ms", "samples": len(requests)},
    }
    if workload.name == "daemon-wal":
        restarts = [ms for p in passes for ms in p.restarts_ms]
        out["event_p99_ms"] = {"value": percentile(requests, 99.0),
                               "unit": "ms", "samples": len(requests)}
        out["recovery_ms"] = {"value": statistics.median(restarts),
                              "unit": "ms", "samples": len(restarts)}
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Per-layer metrics: (name, unit, better, deterministic, value(tracer)).
#: ``deterministic`` metrics repeat exactly for one seed and size.
LAYER_METRICS: List[Tuple[str, str, str, bool, Callable[[Tracer], float]]] = [
    ("cache.access_batch.calls", "count", "lower", True,
     lambda t: t.calls("cache.access_batch")),
    ("cache.access_batch.refs", "count", "lower", True,
     lambda t: t.counts["cache.access_batch.refs"]),
    ("cache.access_batch.misses", "count", "lower", True,
     lambda t: t.counts["cache.access_batch.misses"]),
    ("cache.access_batch.evictions", "count", "lower", True,
     lambda t: t.counts["cache.access_batch.evictions"]),
    ("cache.access_batch.self_s", "s", "lower", False,
     lambda t: t.self_s("cache.access_batch")),
    ("core.record_events.calls", "count", "lower", True,
     lambda t: t.calls("core.record_events")),
    ("core.record_events.events", "count", "lower", True,
     lambda t: t.counts["core.record_events.events"]),
    ("core.record_events.self_s", "s", "lower", False,
     lambda t: t.self_s("core.record_events")),
    ("workloads.next_batch.calls", "count", "lower", True,
     lambda t: t.calls("workloads.next_batch")),
    ("workloads.next_batch.refs", "count", "lower", True,
     lambda t: t.counts["workloads.next_batch.refs"]),
    ("workloads.next_batch.self_s", "s", "lower", False,
     lambda t: t.self_s("workloads.next_batch")),
    ("perf.simulator.run.calls", "count", "lower", True,
     lambda t: t.calls("perf.simulator.run")),
    ("perf.simulator.run.self_s", "s", "lower", False,
     lambda t: t.self_s("perf.simulator.run")),
    ("perf.simulator.phase1_s", "s", "lower", False,
     lambda t: t.counts["perf.simulator.phase1_ns"] / 1e9),
    ("perf.simulator.phase2_s", "s", "lower", False,
     lambda t: t.counts["perf.simulator.phase2_ns"] / 1e9),
    ("perf.timing.batch_cycles.self_s", "s", "lower", False,
     lambda t: t.self_s("perf.timing.batch_cycles")),
    ("sched.self_s", "s", "lower", False,
     lambda t: t.self_s_prefix("sched.")),
    ("sched.context_switch.calls", "count", "lower", True,
     lambda t: t.calls("sched.context_switch")),
    ("alloc.monitor.invoke.calls", "count", "lower", True,
     lambda t: t.calls("alloc.monitor.invoke")),
    ("alloc.monitor.invoke.self_s", "s", "lower", False,
     lambda t: t.self_s("alloc.monitor.invoke")),
    ("alloc.monitor.invoke.memo_hit_ratio", "ratio", "higher", True,
     lambda t: _ratio(t.counts["alloc.monitor.invoke.memo_hits"],
                      t.calls("alloc.monitor.invoke"))),
    ("alloc.monitor.invoke.fallbacks", "count", "lower", True,
     lambda t: t.counts["alloc.monitor.invoke.fallbacks"]),
    ("alloc.policy.allocate.calls", "count", "lower", True,
     lambda t: t.calls("alloc.policy.allocate")),
    ("alloc.policy.allocate.self_s", "s", "lower", False,
     lambda t: t.self_s("alloc.policy.allocate")),
    ("jobs.run_specs.self_s", "s", "lower", False,
     lambda t: t.self_s("jobs.run_specs")),
    ("estimate.reuse.profile_task.calls", "count", "lower", True,
     lambda t: t.calls("estimate.reuse.profile_task")),
    ("estimate.reuse.profile_task.refs", "count", "lower", True,
     lambda t: t.counts["estimate.reuse.profile_task.refs"]),
    ("estimate.reuse.profile_task.self_s", "s", "lower", False,
     lambda t: t.self_s("estimate.reuse.profile_task")),
    ("estimate.analytical.model_init.self_s", "s", "lower", False,
     lambda t: t.self_s("estimate.analytical.model_init")),
    ("estimate.analytical.predict.calls", "count", "lower", True,
     lambda t: t.calls("estimate.analytical.predict")),
    ("estimate.analytical.predict.self_s", "s", "lower", False,
     lambda t: t.self_s("estimate.analytical.predict")),
    ("service.registry.views.calls", "count", "lower", True,
     lambda t: t.calls("service.registry.views")),
    ("service.registry.views.self_s", "s", "lower", False,
     lambda t: t.self_s("service.registry.views")),
    ("service.registry.update.self_s", "s", "lower", False,
     lambda t: t.self_s("service.registry.update")),
    ("service.mapper.incremental.calls", "count", "lower", True,
     lambda t: t.calls("service.mapper.incremental")),
    ("service.mapper.incremental.self_s", "s", "lower", False,
     lambda t: t.self_s("service.mapper.incremental")),
    ("service.mapper.full.calls", "count", "lower", True,
     lambda t: t.calls("service.mapper.full")),
    ("service.mapper.full.self_s", "s", "lower", False,
     lambda t: t.self_s("service.mapper.full")),
    ("service.mapper.incremental_ratio", "ratio", "higher", True,
     lambda t: _ratio(t.calls("service.mapper.incremental"),
                      t.calls("service.mapper.incremental")
                      + t.calls("service.mapper.full"))),
    ("service.event.self_s", "s", "lower", False,
     lambda t: t.self_s("service.event")),
    ("service.queue_wait_ms", "ms", "lower", False,
     lambda t: _median_or_zero(t.samples["service.queue_wait_ms"])),
    ("durable.wal.append.calls", "count", "lower", True,
     lambda t: t.calls("durable.wal.append")),
    ("durable.wal.append.bytes", "B", "lower", True,
     lambda t: t.counts["durable.wal.append.bytes"]),
    ("durable.wal.append.self_s", "s", "lower", False,
     lambda t: t.self_s("durable.wal.append")),
    ("durable.wal.fsyncs", "count", "lower", True,
     lambda t: t.counts["durable.wal.fsyncs"]),
    ("durable.snapshot.save.calls", "count", "lower", True,
     lambda t: t.calls("durable.snapshot.save")),
    ("durable.snapshot.save.bytes", "B", "lower", True,
     lambda t: t.counts["durable.snapshot.save.bytes"]),
    ("durable.snapshot.save.self_s", "s", "lower", False,
     lambda t: t.self_s("durable.snapshot.save")),
    ("durable.note_applied.self_s", "s", "lower", False,
     lambda t: t.self_s("durable.note_applied")),
    ("durable.recover.load_s", "s", "lower", False,
     lambda t: t.total_s("durable.recover.load")),
    ("durable.recover.replayed_events", "count", "lower", True,
     lambda t: t.counts["durable.recover.replayed_events"]),
    ("durable.recover.self_s", "s", "lower", False,
     lambda t: t.self_s("durable.recover")),
]

#: Traced wall time over untraced wall time, minus one; computed by the
#: runner from both kinds of pass.
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    return {name: float(value(tracer))
            for name, _, _, _, value in LAYER_METRICS}
