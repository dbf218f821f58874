"""Supervision acceptance: the ISSUE's four pinned end-to-end claims.

1. A hung worker is killed within the heartbeat grace period — well
   before its per-job wall-clock timeout — while a slow-but-ticking job
   is left alone.
2. A worker over its RSS budget is killed and classified.
3. A spec that fails terminally ``threshold`` consecutive times is
   circuit-broken and durably quarantined, and a resumed sweep skips
   quarantined specs without occupying a worker.
4. A supervised fault-free run is byte-identical to the unsupervised
   baseline: supervision may change *when workers are killed*, never
   *what results are*.
"""

import time

import pytest

from repro.errors import JobError
from repro.jobs import JobFailure, Orchestrator, WorkerPool, make_run_spec
from repro.jobs.keys import canonical_json, spec_key
from repro.jobs.spec import WorkloadSpec, execute_spec
from repro.perf.machine import core2duo
from repro.supervise import PoisonQuarantine, SupervisionConfig
from tests.jobs import _workers

#: Generous per-job budget the watchdog must beat by a wide margin.
JOB_TIMEOUT = 120.0


def tiny_spec(seed=0):
    """A cheap pinned-mapping measurement spec (distinct by seed)."""
    return make_run_spec(
        core2duo(),
        WorkloadSpec(
            kind="spec", names=("mcf", "povray"), instructions=100_000,
            seed=seed,
        ),
        mapping=[[0], [1]],
    )


def summaries(outcomes):
    """Byte-comparable form of a batch's results."""
    return [canonical_json(outcome.to_dict()) for outcome in outcomes]


# -- heartbeats and the watchdog, against real worker processes --------


def test_hung_worker_killed_within_grace_before_job_timeout():
    events = []
    pool = WorkerPool(
        jobs=1, timeout=JOB_TIMEOUT, retries=0, backoff=0.01,
        hang_timeout=1.0, heartbeat_interval=0.1,
    )
    started = time.monotonic()
    results = pool.run(
        _workers.hang_forever, [0],
        on_event=lambda kind, **f: events.append(kind), keep_going=True,
    )
    elapsed = time.monotonic() - started
    # The whole run (spawn + hang grace + teardown) must finish in a
    # small fraction of the 120 s wall budget the job never exhausted.
    assert elapsed < JOB_TIMEOUT / 4
    failure = results[0]
    assert isinstance(failure, JobFailure)
    assert failure.kind == "hung"
    assert "no heartbeat" in failure.error
    assert "failed" in events


def test_slow_but_ticking_job_is_left_alone():
    """2.5 s of work under a 1 s hang grace: slow is not hung."""
    pool = WorkerPool(
        jobs=1, retries=0, backoff=0.01,
        hang_timeout=1.0, heartbeat_interval=0.1,
    )
    assert pool.run(_workers.slow_but_alive, [(2.5, "ok")]) == ["ok"]


def test_over_budget_worker_is_killed_and_classified():
    pool = WorkerPool(
        jobs=1, retries=0, backoff=0.01,
        max_rss_mb=150.0, heartbeat_interval=0.1,
    )
    results = pool.run(
        _workers.balloon_rss, [(300.0, 60.0, "never")], keep_going=True,
    )
    failure = results[0]
    assert isinstance(failure, JobFailure)
    assert failure.kind == "over_budget"
    assert "exceeded" in failure.error


def test_hung_job_can_retry_clean_on_a_fresh_worker(tmp_path):
    """The condemned job is charged one attempt, not the whole budget."""
    marker = tmp_path / "hung-once.marker"
    pool = WorkerPool(
        jobs=1, retries=1, backoff=0.01,
        hang_timeout=1.0, heartbeat_interval=0.1,
    )
    results = pool.run(_workers.hang_until_marker, [(str(marker), 17)])
    assert results == [17]
    assert marker.exists()


# -- breaker + quarantine through the orchestrator ---------------------


def test_three_consecutive_failures_trip_breaker_and_quarantine(tmp_path):
    calls = {"n": 0}

    def boom(payload):
        calls["n"] += 1
        raise RuntimeError("deterministic boom")

    spec = tiny_spec()
    key = spec_key(spec)
    orch = Orchestrator(
        jobs=1, keep_going=True, executor=boom,
        supervision=SupervisionConfig(
            breaker_threshold=3, quarantine=str(tmp_path / "poison.jsonl"),
        ),
    )
    for _ in range(3):
        [failure] = orch.run_specs([spec])
        assert isinstance(failure, JobFailure)
        assert "deterministic boom" in failure.error
    assert calls["n"] == 3
    assert orch.breaker.state(key) == "open"
    assert key in orch.quarantine
    assert "deterministic boom" in orch.quarantine.reason(key)

    # The fourth submission never reaches the executor.
    [blocked] = orch.run_specs([spec])
    assert calls["n"] == 3
    assert blocked.kind == "quarantined"
    assert blocked.attempts == 0
    assert orch.counters.poisoned == 1


def test_open_circuit_short_circuits_then_grants_wave_counted_probe():
    calls = {"n": 0}

    def boom(payload):
        calls["n"] += 1
        raise RuntimeError("still broken")

    spec = tiny_spec()
    orch = Orchestrator(
        jobs=1, keep_going=True, executor=boom,
        supervision=SupervisionConfig(
            breaker_threshold=1, breaker_cooldown_waves=2,
        ),
    )
    orch.run_specs([spec])  # wave 1: fails, trips
    assert calls["n"] == 1

    [blocked] = orch.run_specs([spec])  # wave 2: cooling down
    assert calls["n"] == 1
    assert blocked.kind == "short_circuited"
    assert blocked.attempts == 0
    assert "circuit open after 1 failure(s)" in blocked.error

    [probe] = orch.run_specs([spec])  # wave 3: half-open probe runs
    assert calls["n"] == 2
    assert probe.kind == "error"

    orch.run_specs([spec])  # wave 4: the failed probe re-opened
    assert calls["n"] == 2
    assert orch.counters.short_circuited == 2


def test_resumed_sweep_skips_quarantined_specs(tmp_path):
    """Quarantine + journal: resume executes nothing, names the poison."""

    def fail_odd_seeds(payload):
        if payload["workload"]["seed"] % 2:
            raise RuntimeError("poison parameters")
        return execute_spec(payload)

    specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
    journal = tmp_path / "sweep.journal"
    quarantine = tmp_path / "poison.jsonl"

    def supervision():
        return SupervisionConfig(
            breaker_threshold=1, quarantine=str(quarantine),
        )

    first = Orchestrator(
        jobs=1, keep_going=True, executor=fail_odd_seeds,
        journal=journal, supervision=supervision(),
    )
    results = first.run_specs(specs)
    assert not isinstance(results[0], JobFailure)
    assert isinstance(results[1], JobFailure)
    assert spec_key(specs[1]) in first.quarantine

    # A new process: fresh orchestrator, same journal + quarantine files.
    resumed = Orchestrator(
        jobs=1, keep_going=True, executor=fail_odd_seeds,
        journal=journal, supervision=supervision(),
    )
    replay = resumed.run_specs(specs)
    assert resumed.counters.executed == 0
    assert resumed.counters.journal_hits == 1
    assert resumed.counters.poisoned == 1
    assert replay[0].cached
    assert replay[1].kind == "quarantined"
    assert "poison parameters" in replay[1].error


def test_fail_fast_mode_raises_on_quarantined_spec(tmp_path):
    spec = tiny_spec()
    path = tmp_path / "poison.jsonl"
    PoisonQuarantine(path).add(spec_key(spec), reason="known poison")

    def never_called(payload):  # pragma: no cover - the point of the test
        raise AssertionError("a quarantined spec reached the executor")

    orch = Orchestrator(
        jobs=1, executor=never_called,
        supervision=SupervisionConfig(quarantine=str(path)),
    )
    with pytest.raises(JobError, match="quarantined poison spec"):
        orch.run_specs([spec])


# -- the byte-identical guarantee --------------------------------------


def test_supervised_no_fault_run_is_byte_identical():
    specs = [tiny_spec(seed=s) for s in (0, 1)]
    baseline = summaries(Orchestrator(jobs=2).run_specs(specs))
    supervised = Orchestrator(
        jobs=2,
        supervision=SupervisionConfig(
            hang_timeout=30.0, max_rss_mb=4096.0,
        ),
    )
    assert summaries(supervised.run_specs(specs)) == baseline
