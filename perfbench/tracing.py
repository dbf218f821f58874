"""Outside-in span tracing for the benchmark's traced run.

The program's own telemetry (``repro.telemetry``) stays off: every span
here comes from a wrapper that this file installs around a layer's
public entry point and removes again afterwards. A span records its
name, start, end, parent span and the request it served (a simulator
run, an analytical mix pricing, or a daemon event's seq). Self time is a
span's duration minus the time its child spans cover.

Spans are kept in memory, up to :attr:`Tracer.span_cap`; per-name
totals are exact however many spans the cap leaves out of the file.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.alloc.interference import InterferenceGraphPolicy
from repro.alloc.monitor import UserLevelMonitor
from repro.alloc.weight_sort import WeightSortPolicy
from repro.cache.cache import SetAssociativeCache
from repro.core.signature import SignatureUnit
from repro.durable.manager import DurabilityManager
from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import EventWAL
from repro.estimate import reuse
from repro.estimate.analytical import AnalyticalModel
from repro.jobs.orchestrator import Orchestrator
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.os_model import OSScheduler
from repro.service.daemon import SchedulerService
from repro.service.mapper import IncrementalMapper
from repro.service.registry import ProcessRegistry
from repro.workloads.base import TraceGenerator

_now = time.perf_counter_ns

#: Scheduler entry points the simulator loop calls; their self times sum
#: into ``sched.self_s``.
_SCHED_METHODS = (
    "runnable_cores",
    "current_task",
    "charge",
    "context_switch",
    "apply_mapping",
    "set_affinity",
)


class Tracer:
    """In-memory span recorder with per-name call/total/self aggregates."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        #: Request id stamped on every span that begins while it is set.
        self.request: Any = None
        #: name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Work counts observed at span boundaries (refs, bytes, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Per-request samples, e.g. queue wait before the first layer call.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (name, start_ns, end_ns, span_id, parent_id, request)
        self.spans: List[tuple] = []
        self.spans_seen = 0
        self._stack: List[list] = []

    def begin(self, name: str) -> list:
        """Open a span; returns the frame :meth:`end` must be given."""
        now = _now()
        if self._stack:
            parent = self._stack[-1]
            if parent[4] is None:
                parent[4] = now
        # [name, start, child_ns, span_id, first_child_start, request]
        frame = [name, now, 0, self.spans_seen, None, self.request]
        self.spans_seen += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: Optional[str] = None) -> int:
        """Close *frame* (optionally under a name decided by its result)."""
        now = _now()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        label = frame[0] if name is None else name
        duration = now - frame[1]
        stat = self.stats[label]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (label, frame[1], now, frame[3], parent_id, frame[5])
            )
        return duration

    # -- aggregates ----------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] / 1e9 if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] / 1e9 if name in self.stats else 0.0

    def self_s_prefix(self, prefix: str) -> float:
        return sum(
            stat[2] for name, stat in self.stats.items()
            if name.startswith(prefix)
        ) / 1e9

    def write_chrome_trace(self, path, metadata: Dict[str, Any]) -> None:
        """Write the recorded spans as Chrome trace-event JSON (Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": os.getpid(),
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for name, start, end, span_id, parent, request in self.spans
        ]
        other = dict(metadata)
        other.update(spans_seen=self.spans_seen, spans_written=len(events))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": other},
                handle,
            )


class RefCounter:
    """Per-run L2 reference and miss tally, read from the caches' stats.

    It wraps :meth:`MulticoreSimulator.run` once per simulator run, so the
    untraced measurement gains no per-batch work.
    """

    def __init__(self) -> None:
        self.refs = 0
        self.misses = 0

    def observe(self, simulator: MulticoreSimulator) -> None:
        for cache in {id(c): c for c in simulator.caches}.values():
            self.refs += cache.stats.total_accesses
            self.misses += cache.stats.total_misses


class Patches:
    """Class-attribute replacements, undone in reverse by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(
    tracer: Tracer,
    name: str,
    *,
    label: Optional[Callable[[Any], str]] = None,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """Wrapper factory: one span per call, optional result-based label."""
    begin, end = tracer.begin, tracer.end

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end(frame)
                raise
            duration = end(frame, None if label is None else label(result))
            if after is not None:
                after(args, kwargs, result, duration, token)
            return result

        return wrapper

    return make


def _outermost_next_batch(tracer: Tracer) -> Callable:
    """``TraceGenerator.next_batch`` counted at the outermost call only:
    composite generators draw from child generators inside their own
    ``next_batch``, and those inner draws are part of the outer span."""
    begin, end = tracer.begin, tracer.end
    depth = [0]

    def make(original: Callable) -> Callable:
        def next_batch(self, n):
            if depth[0]:
                return original(self, n)
            depth[0] += 1
            frame = begin("workloads.next_batch")
            try:
                result = original(self, n)
            finally:
                end(frame)
                depth[0] -= 1
            tracer.counts["workloads.next_batch.refs"] += len(result)
            return result

        return next_batch

    return make


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def install(
    refs: Optional[RefCounter], tracer: Optional[Tracer] = None
) -> Patches:
    """Install the reference counter and, when *tracer* is given, every
    layer wrapper. Returns the patches to :meth:`Patches.restore`."""
    patches = Patches()

    def run_hook(original: Callable) -> Callable:
        if tracer is None:
            def run(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                refs.observe(self)
                return result
            return run

        def run(self, *args, **kwargs):
            outer_request = tracer.request
            tracer.counts["perf.simulator.runs"] += 1
            tracer.request = f"run:{tracer.counts['perf.simulator.runs']}"
            frame = tracer.begin("perf.simulator.run")
            try:
                result = original(self, *args, **kwargs)
            finally:
                duration = tracer.end(frame)
                tracer.request = outer_request
            phase = "phase1" if self.monitor is not None else "phase2"
            tracer.counts[f"perf.simulator.{phase}_ns"] += duration
            if refs is not None:
                refs.observe(self)
            return result
        return run

    if refs is not None or tracer is not None:
        patches.replace(MulticoreSimulator, "run", run_hook)
    if tracer is None:
        return patches

    counts = tracer.counts

    def count(key: str, amount: Callable) -> Callable:
        def after(args, kwargs, result, duration, token):
            counts[key] += amount(args, result)
        return after

    def cache_after(args, kwargs, result, duration, token):
        counts["cache.access_batch.refs"] += result.hits + result.misses
        counts["cache.access_batch.misses"] += result.misses
        counts["cache.access_batch.evictions"] += len(result.evictions)

    patches.replace(
        SetAssociativeCache, "access_batch",
        _spanned(tracer, "cache.access_batch", after=cache_after),
    )

    def record_after(args, kwargs, result, duration, token):
        # record_events(self, core, fills, fill_slots, evictions, ...)
        fills = args[2] if len(args) > 2 else kwargs["fills"]
        evictions = args[4] if len(args) > 4 else kwargs["evictions"]
        counts["core.record_events.events"] += len(fills) + len(evictions)

    patches.replace(
        SignatureUnit, "record_events",
        _spanned(tracer, "core.record_events", after=record_after),
    )
    patches.replace(TraceGenerator, "next_batch", _outermost_next_batch(tracer))
    patches.replace(
        TimingModel, "batch_cycles",
        _spanned(tracer, "perf.timing.batch_cycles"),
    )
    for method in _SCHED_METHODS:
        patches.replace(
            OSScheduler, method, _spanned(tracer, f"sched.{method}")
        )

    def monitor_before(args, kwargs):
        monitor = args[0]
        return monitor.memo_hits, len(monitor.degradations)

    def monitor_after(args, kwargs, result, duration, token):
        monitor = args[0]
        counts["alloc.monitor.invoke.memo_hits"] += (
            monitor.memo_hits - token[0]
        )
        counts["alloc.monitor.invoke.fallbacks"] += sum(
            1 for event in monitor.degradations[token[1]:]
            if event.get("action") == "fallback-default-mapping"
        )

    patches.replace(
        UserLevelMonitor, "invoke",
        _spanned(tracer, "alloc.monitor.invoke",
                 before=monitor_before, after=monitor_after),
    )
    for policy in (InterferenceGraphPolicy, WeightSortPolicy):
        patches.replace(
            policy, "allocate", _spanned(tracer, "alloc.policy.allocate")
        )
    patches.replace(
        Orchestrator, "run_specs", _spanned(tracer, "jobs.run_specs")
    )

    patches.replace(
        reuse, "profile_task",
        _spanned(
            tracer, "estimate.reuse.profile_task",
            after=count("estimate.reuse.profile_task.refs",
                        lambda args, result: result.refs),
        ),
    )
    patches.replace(
        AnalyticalModel, "__init__",
        _spanned(tracer, "estimate.analytical.model_init"),
    )
    patches.replace(
        AnalyticalModel, "predict",
        _spanned(tracer, "estimate.analytical.predict"),
    )

    patches.replace(
        ProcessRegistry, "views", _spanned(tracer, "service.registry.views")
    )
    for method in ("admit", "retire", "phase_change", "apply_mapping"):
        patches.replace(
            ProcessRegistry, method,
            _spanned(tracer, "service.registry.update"),
        )

    def mapper_label(decision) -> str:
        return (
            "service.mapper.full" if decision.action == "full"
            else "service.mapper.incremental"
        )

    for method in ("admit", "retire", "phase_change", "settle"):
        patches.replace(
            IncrementalMapper, method,
            _spanned(tracer, "service.mapper", label=mapper_label),
        )

    def wal_before(args, kwargs):
        return _file_size(args[0].path)

    def wal_after(args, kwargs, result, duration, token):
        counts["durable.wal.append.bytes"] += (
            _file_size(args[0].path) - token
        )

    patches.replace(
        EventWAL, "append",
        _spanned(tracer, "durable.wal.append",
                 before=wal_before, after=wal_after),
    )
    patches.replace(
        SnapshotStore, "save",
        _spanned(
            tracer, "durable.snapshot.save",
            after=count("durable.snapshot.save.bytes",
                        lambda args, path: _file_size(path)),
        ),
    )
    patches.replace(
        DurabilityManager, "note_applied",
        _spanned(tracer, "durable.note_applied"),
    )
    patches.replace(
        DurabilityManager, "load", _spanned(tracer, "durable.recover.load")
    )
    patches.replace(
        SchedulerService, "recover",
        _spanned(
            tracer, "durable.recover",
            after=count("durable.recover.replayed_events",
                        lambda args, service: service.recovered_events),
        ),
    )
    return patches

