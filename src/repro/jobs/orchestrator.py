"""The orchestration facade: dedupe, journal, cache, fan out, report.

:class:`Orchestrator` is the single entry point the experiment drivers
talk to. Given a batch of :class:`~repro.jobs.spec.RunSpec` objects it:

1. **dedupes** — identical specs (by content-addressed key) are executed
   once and their outcome shared;
2. **replays the journal** — when a write-ahead
   :class:`~repro.jobs.journal.RunJournal` is attached, specs recorded as
   completed by an earlier (possibly crashed) run are served from the
   journal without touching the cache or a worker;
3. **checks the cache** — previously computed outcomes are served from
   the on-disk :class:`~repro.jobs.cache.ResultCache` (when configured),
   which quarantines any corrupt entry it trips over;
4. **fans out** — remaining misses run on a
   :class:`~repro.jobs.pool.WorkerPool` (``jobs > 1``) or in-process
   (``jobs == 1``), always producing results in submission order; with
   ``keep_going=True`` a terminally failed spec yields a
   :class:`~repro.jobs.failures.JobFailure` in its result slot instead of
   aborting the batch;
5. **reports** — every step is narrated through an
   :class:`~repro.jobs.events.EventLog` whose counters back the
   acceptance assertions (e.g. a warm-cache batch must show
   ``counters.executed == 0``).

Because outcomes are pure data keyed by pure data, a batch's results are
independent of worker count: ``jobs=4`` and ``jobs=1`` produce identical
outcomes for identical specs.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import JobError
from repro.jobs.cache import ResultCache
from repro.jobs.events import EventLog, JobEvent
from repro.jobs.failures import JobFailure
from repro.jobs.journal import RunJournal
from repro.jobs.keys import spec_key
from repro.jobs.pool import DEFAULT_MP_CONTEXT, WorkerPool
from repro.jobs.spec import RunOutcome, RunSpec, execute_spec
from repro.supervise.config import SupervisionConfig
from repro.telemetry.context import current as telemetry_current
from repro.telemetry.metrics import EventCounterSink

__all__ = ["Orchestrator"]

#: What one result slot may hold in keep-going mode.
BatchResult = Union[RunOutcome, JobFailure]


class Orchestrator:
    """Runs batches of run specs with dedup, caching and parallelism.

    Parameters
    ----------
    jobs:
        Parallel worker processes. ``1`` (default) executes in-process —
        no subprocesses, no pickling — while keeping dedup and caching.
    cache_dir:
        Optional directory for the on-disk result cache; ``None``
        disables persistent caching (batch-level dedup still applies).
    timeout:
        Optional per-job wall-clock budget in seconds (pooled mode only),
        measured from the job's actual worker-side start.
    retries:
        Extra attempts after a worker crash or timeout.
    backoff:
        Crash-recovery backoff base in seconds.
    mp_context:
        Multiprocessing start method; defaults to ``'spawn'``.
    on_event:
        Optional sink receiving every :class:`~repro.jobs.events.JobEvent`.
    journal:
        Optional write-ahead journal — a :class:`RunJournal` or a path to
        one. Completed specs are durably recorded as they finish, and
        specs already journaled (by this run or a crashed predecessor)
        are replayed instead of re-executed.
    keep_going:
        When True, a terminally failed spec does not abort the batch:
        its result slot holds a :class:`JobFailure` and everything else
        still completes. Default False preserves fail-fast semantics.
    executor:
        The spec executor fanned out to workers; defaults to
        :func:`~repro.jobs.spec.execute_spec`. Must be a picklable
        callable taking the spec's dict payload (the chaos harness passes
        :meth:`~repro.faults.chaos.ChaosConfig.executor` here).
    supervision:
        Optional :class:`~repro.supervise.config.SupervisionConfig`
        arming the supervision subsystem: heartbeat/hang/RSS watchdog
        knobs flow into the worker pool, the retry policy replaces the
        plain ``backoff`` base, and the per-spec-key circuit breaker plus
        the persisted poison quarantine gate submissions *before* they
        reach a worker. ``None`` (default) runs the exact unsupervised
        code paths. The watchdog needs workers, so it applies in pooled
        mode only; breaker and quarantine also gate serial execution.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.5,
        mp_context: Optional[str] = None,
        on_event: Optional[Callable[[JobEvent], None]] = None,
        journal=None,
        keep_going: bool = False,
        executor: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        supervision: Optional[SupervisionConfig] = None,
    ):
        self.jobs = jobs
        self.cache = None if cache_dir is None else ResultCache(cache_dir)
        self.log = EventLog(sink=on_event)
        self.keep_going = keep_going
        self.executor = execute_spec if executor is None else executor
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        self._metrics_sink = None
        self.supervision = supervision
        self.breaker = (
            None
            if supervision is None
            else supervision.make_breaker(
                on_transition=self._on_breaker_transition
            )
        )
        self.quarantine = (
            None if supervision is None else supervision.make_quarantine()
        )
        pool_kwargs: Dict[str, Any] = {}
        if supervision is not None:
            pool_kwargs = dict(
                retry_policy=supervision.retry,
                hang_timeout=supervision.hang_timeout,
                heartbeat_interval=supervision.heartbeat_interval,
                max_rss_mb=supervision.max_rss_mb,
            )
        self._pool = (
            None
            if jobs <= 1
            else WorkerPool(
                jobs,
                mp_context=mp_context or DEFAULT_MP_CONTEXT,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                **pool_kwargs,
            )
        )

    def _on_breaker_transition(self, key: str, old: str, new: str) -> None:
        """Mirror circuit state changes into the metrics registry."""
        tel = telemetry_current()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter(
                f"breaker_to_{new}_total",
                help=f"circuit-breaker transitions into state {new!r}",
            ).inc()

    @property
    def counters(self):
        """The rolling :class:`~repro.jobs.events.EventCounters`."""
        return self.log.counters

    # ------------------------------------------------------------------
    def run_spec(self, spec: RunSpec) -> BatchResult:
        """Execute a single spec (a one-element batch)."""
        return self.run_specs([spec])[0]

    def _lookup(self, key: str, replayed: Dict[str, Dict[str, Any]]):
        """Serve one key from the journal or cache; ``None`` on a miss."""
        if key in replayed:
            self.log.emit("journal_hit", key=key)
            return RunOutcome.from_dict(replayed[key], cached=True)
        if self.cache is None:
            return None
        quarantined_before = self.cache.stats.quarantined
        cached = self.cache.get(key)
        if self.cache.stats.quarantined > quarantined_before:
            self.log.emit("quarantined", key=key)
        if cached is None:
            return None
        self.log.emit("cache_hit", key=key)
        return RunOutcome.from_dict(cached, cached=True)

    def _gate_misses(
        self, misses: List[str], outcomes: Dict[str, "BatchResult"]
    ) -> List[str]:
        """Apply the quarantine and circuit breaker to the batch's misses.

        Keys on the persisted poison quarantine, and keys whose circuit
        is open, never reach a worker: their result slot is filled with a
        structured :class:`JobFailure` (``kind='quarantined'`` /
        ``'short_circuited'``) carrying zero attempts — in keep-going
        mode these flow into ``SweepResult.failures`` as named exclusions
        rather than silently rerun poison. In fail-fast mode a blocked
        key aborts the batch with :class:`~repro.errors.JobError`.

        One breaker *wave* elapses per gated batch — the cool-down an
        open circuit waits out is counted here, not on the wall clock.
        """
        if self.quarantine is None and self.breaker is None:
            return misses
        if self.breaker is not None:
            self.breaker.advance_wave()
        allowed: List[str] = []
        for key in misses:
            if self.quarantine is not None and key in self.quarantine:
                reason = self.quarantine.reason(key) or "poison spec"
                self.log.emit("poisoned", key=key, detail=reason)
                blocked = JobFailure(
                    error=f"quarantined poison spec: {reason}",
                    attempts=0, key=key, kind="quarantined",
                )
            elif self.breaker is not None and not self.breaker.allow(key):
                last = self.breaker.last_error(key) or "repeated failures"
                self.log.emit("short_circuited", key=key, detail=last)
                blocked = JobFailure(
                    error=(
                        f"circuit open after "
                        f"{self.breaker.failures(key)} failure(s): {last}"
                    ),
                    attempts=0, key=key, kind="short_circuited",
                )
            else:
                allowed.append(key)
                continue
            if not self.keep_going:
                raise JobError(f"spec {key[:12]}…: {blocked.error}")
            outcomes[key] = blocked
        return allowed

    def _record_terminal_failure(self, key: str, failure: JobFailure) -> None:
        """Feed one terminal failure to the breaker (and the quarantine).

        When this failure trips the key's circuit and a quarantine file
        is configured, the key is durably denylisted — a resumed
        campaign consults the file before submitting anything.
        """
        if self.breaker is None:
            return
        tripped = self.breaker.record_failure(key, error=failure.error)
        if tripped and self.quarantine is not None:
            self.quarantine.add(
                key,
                reason=f"{failure.kind}: {failure.error}",
                failures=self.breaker.failures(key),
            )

    def _execute_serial(self, misses, payloads) -> List[Any]:
        """In-process execution of the batch's misses (jobs == 1)."""
        tel = telemetry_current()
        tracer = tel.tracer if tel is not None else None
        raw: List[Any] = []
        for index, (key, payload) in enumerate(zip(misses, payloads)):
            self.log.emit("started", key=key, attempt=1)
            job_started = time.monotonic()
            job_span = (
                tracer.begin("job.execute", key=key, index=index)
                if tracer is not None
                else None
            )
            try:
                raw.append(self.executor(payload))
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                self.log.emit(
                    "failed", key=key, attempt=1, detail=detail
                )
                if not self.keep_going:
                    raise
                raw.append(
                    JobFailure(
                        error=detail, attempts=1,
                        wall_time=time.monotonic() - job_started,
                        index=index, key=key,
                    )
                )
                continue
            finally:
                if job_span is not None:
                    tracer.end(job_span)
            self.log.emit(
                "completed", key=key, attempt=1,
                wall_time=time.monotonic() - job_started,
            )
        return raw

    def _execute_pooled(self, misses, payloads) -> List[Any]:
        """Fan the batch's misses out to the worker pool."""
        def forward(kind: str, index: int = 0, **fields) -> None:
            fields.pop("wall_time", None)
            self.log.emit(
                kind, key=misses[index],
                attempt=fields.get("attempt", 0),
                detail=fields.get("detail", ""),
            )

        tel = telemetry_current()
        tracer = tel.tracer if tel is not None else None
        fan_span = (
            tracer.begin("pool.fan_out", jobs=self._pool.jobs, misses=len(misses))
            if tracer is not None
            else None
        )
        wave_started = time.monotonic()
        try:
            raw = self._pool.run(
                self.executor, payloads, on_event=forward,
                keep_going=self.keep_going,
            )
        finally:
            if fan_span is not None:
                tracer.end(fan_span)
        elapsed = time.monotonic() - wave_started
        completed = [
            key for key, r in zip(misses, raw)
            if not isinstance(r, JobFailure)
        ]
        for key in completed:
            self.log.emit(
                "completed", key=key, wall_time=elapsed / len(completed),
            )
        return raw

    def run_specs(self, specs: Sequence[RunSpec]) -> List[BatchResult]:
        """Execute a batch; outcomes align index-for-index with *specs*.

        Identical specs are executed once; journaled or cached specs are
        not executed at all. The returned outcomes carry ``cached=True``
        when served from the journal or the on-disk cache. In keep-going
        mode a slot may hold a :class:`JobFailure` instead of a
        :class:`~repro.jobs.spec.RunOutcome` — callers opting in must
        check each slot. The journal's and quarantine's file handles are
        released before this returns; the next batch reopens them.
        """
        tel = telemetry_current()
        if (
            tel is not None
            and tel.metrics is not None
            and self._metrics_sink is None
        ):
            # Absorb the rolling EventCounters into the metrics registry:
            # every event also increments a jobs_events_* counter there.
            self._metrics_sink = EventCounterSink(tel.metrics)
            self.log.add_sink(self._metrics_sink)
        batch_span = (
            tel.tracer.begin("orchestrator.run_specs", specs=len(specs))
            if tel is not None and tel.tracer is not None
            else None
        )
        try:
            return self._run_specs_inner(specs)
        finally:
            for log in (self.journal, self.quarantine):
                if log is not None:
                    log.close()
            if batch_span is not None:
                tel.tracer.end(batch_span)

    def _run_specs_inner(self, specs: Sequence[RunSpec]) -> List[BatchResult]:
        """The body of :meth:`run_specs` (separated for span scoping)."""
        batch_started = time.monotonic()
        self.log.emit("batch_start", detail=f"{len(specs)} specs")

        keys: List[str] = []
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            key = spec_key(spec)
            keys.append(key)
            if key in unique:
                self.log.emit("deduped", key=key)
            else:
                unique[key] = spec
                self.log.emit("submitted", key=key)

        replayed = {} if self.journal is None else self.journal.load()
        outcomes: Dict[str, BatchResult] = {}
        misses: List[str] = []
        for key in unique:
            found = self._lookup(key, replayed)
            if found is not None:
                outcomes[key] = found
            else:
                misses.append(key)

        misses = self._gate_misses(misses, outcomes)

        if misses:
            payloads = [unique[key].to_dict() for key in misses]
            if self._pool is None:
                raw = self._execute_serial(misses, payloads)
            else:
                raw = self._execute_pooled(misses, payloads)
            for index, (key, result) in enumerate(zip(misses, raw)):
                if isinstance(result, JobFailure):
                    outcomes[key] = JobFailure(
                        error=result.error, attempts=result.attempts,
                        wall_time=result.wall_time, index=index, key=key,
                        kind=result.kind,
                    )
                    self._record_terminal_failure(key, result)
                    continue
                outcomes[key] = RunOutcome.from_dict(result)
                if self.breaker is not None:
                    self.breaker.record_success(key)
                if self.cache is not None:
                    self.cache.put(key, unique[key].to_dict(), result)
                if self.journal is not None:
                    self.journal.record(key, result)

        self.counters.completed += len(specs)
        self.log.emit(
            "batch_end",
            wall_time=time.monotonic() - batch_started,
            detail=self.counters.summary(),
        )
        return [outcomes[key] for key in keys]
