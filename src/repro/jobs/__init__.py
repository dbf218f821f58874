"""Parallel experiment orchestration with content-addressed caching.

The paper's evaluation is thousands of independent simulations (every
balanced mapping of every mix, twice over for the VM experiments). This
subpackage turns each simulation into a declarative, picklable
:class:`~repro.jobs.spec.RunSpec` — pure data with a stable SHA-256 key —
and provides the machinery to execute batches of them:

* :mod:`repro.jobs.spec` — run specifications, their executor, and the
  JSON-safe :class:`~repro.jobs.spec.RunOutcome` summaries;
* :mod:`repro.jobs.keys` — canonical JSON and content-addressed keys;
* :mod:`repro.jobs.cache` — an atomic, corruption-tolerant on-disk
  result cache keyed by spec hash;
* :mod:`repro.jobs.pool` — a crash-recovering process pool with
  deterministic result ordering, per-job-start timeouts and an optional
  keep-going mode;
* :mod:`repro.jobs.journal` — a write-ahead journal of completed specs
  (checkpoint/resume for interrupted sweeps);
* :mod:`repro.jobs.failures` — structured failure/degradation records
  (:class:`~repro.jobs.failures.FailureReport`) for keep-going sweeps;
* :mod:`repro.jobs.events` — structured progress/telemetry events;
* :mod:`repro.jobs.orchestrator` — the facade tying it together:
  dedupe, journal replay, cache check, fan-out, event reporting.

The experiment drivers (:mod:`repro.perf.experiment`,
:mod:`repro.virt.dom0`) run every simulation through this subsystem:
through the ``orchestrator=`` they are given (parallel, cached), or by
default through an in-process one with no cache. Either way a driver's
result depends only on its arguments.
"""

from __future__ import annotations

from repro.jobs.cache import CACHE_SCHEMA_VERSION, CacheStats, ResultCache
from repro.jobs.events import EVENT_KINDS, EventCounters, EventLog, JobEvent
from repro.jobs.failures import (
    FailureReport,
    JobFailure,
    MixDegradation,
    MixFailure,
)
from repro.jobs.journal import JOURNAL_SCHEMA_VERSION, RunJournal
from repro.jobs.keys import SPEC_SCHEMA_VERSION, canonical_json, spec_key
from repro.jobs.orchestrator import Orchestrator
from repro.jobs.pool import WorkerPool
from repro.jobs.spec import (
    MonitorSpec,
    RunOutcome,
    RunSpec,
    TaskOutcome,
    WorkloadSpec,
    execute_spec,
    make_run_spec,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "SPEC_SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "EVENT_KINDS",
    "CacheStats",
    "ResultCache",
    "RunJournal",
    "FailureReport",
    "JobFailure",
    "MixDegradation",
    "MixFailure",
    "EventCounters",
    "EventLog",
    "JobEvent",
    "canonical_json",
    "spec_key",
    "Orchestrator",
    "WorkerPool",
    "MonitorSpec",
    "RunOutcome",
    "RunSpec",
    "TaskOutcome",
    "WorkloadSpec",
    "execute_spec",
    "make_run_spec",
]
