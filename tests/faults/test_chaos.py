"""Chaos harness acceptance: faults change nothing but the wall clock.

The pinned claim: under a fixed chaos seed — worker kills, delays past
the pool timeout, corrupted cache files — a batch produces summaries
byte-identical to a fault-free run, and a journaled resume executes only
what had not finished.
"""

import pytest

from repro.faults.chaos import ChaosConfig, corrupt_cache_entries
from repro.jobs import Orchestrator, make_run_spec
from repro.jobs.keys import canonical_json
from repro.jobs.spec import WorkloadSpec
from repro.perf.machine import core2duo


def tiny_specs(count=2):
    """Cheap pinned-mapping specs (distinct by seed)."""
    return [
        make_run_spec(
            core2duo(),
            WorkloadSpec(
                kind="spec", names=("mcf", "povray"), instructions=100_000,
                seed=seed,
            ),
            mapping=[[0], [1]],
        )
        for seed in range(count)
    ]


def summaries(outcomes):
    """Byte-comparable form of a batch's results."""
    return [canonical_json(outcome.to_dict()) for outcome in outcomes]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free truth every chaos run must reproduce."""
    return summaries(Orchestrator(jobs=1).run_specs(tiny_specs()))


def test_chaos_config_validates_fractions(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ChaosConfig(seed=0, marker_dir=str(tmp_path), kill_fraction=1.5)
    with pytest.raises(ConfigurationError):
        ChaosConfig(seed=0, marker_dir=str(tmp_path), delay_seconds=-1.0)


def test_worker_kills_do_not_change_results(tmp_path, baseline):
    """Every job's first execution dies mid-run; retries must reproduce
    the fault-free summaries byte for byte."""
    chaos = ChaosConfig(seed=7, marker_dir=str(tmp_path), kill_fraction=1.0)
    orchestrator = Orchestrator(
        jobs=2, retries=2, backoff=0.01, executor=chaos.executor()
    )
    outcomes = orchestrator.run_specs(tiny_specs())
    assert summaries(outcomes) == baseline
    assert orchestrator.counters.retried > 0  # the kills actually struck
    assert list(tmp_path.glob("*.kill"))  # strike-once markers recorded


def test_delays_past_timeout_do_not_change_results(tmp_path, baseline):
    """A job delayed past its wall budget is retried and, on its clean
    second attempt, produces the fault-free result."""
    chaos = ChaosConfig(
        seed=11, marker_dir=str(tmp_path),
        delay_fraction=1.0, delay_seconds=30.0,
    )
    orchestrator = Orchestrator(
        jobs=2, timeout=3.0, retries=2, backoff=0.01,
        executor=chaos.executor(),
    )
    outcomes = orchestrator.run_specs(tiny_specs())
    assert summaries(outcomes) == baseline
    assert orchestrator.counters.timeouts > 0


def test_corrupted_cache_entries_are_quarantined_and_recomputed(
    tmp_path, baseline
):
    """Corrupting every cache file between runs must cost only recompute:
    same summaries, every bad entry quarantined, never a crash."""
    cache_dir = tmp_path / "cache"
    warm = Orchestrator(jobs=1, cache_dir=cache_dir)
    warm.run_specs(tiny_specs())

    corrupted = corrupt_cache_entries(cache_dir, seed=3, fraction=1.0)
    assert len(corrupted) == len(tiny_specs())

    rerun = Orchestrator(jobs=1, cache_dir=cache_dir)
    outcomes = rerun.run_specs(tiny_specs())
    assert summaries(outcomes) == baseline
    assert rerun.counters.executed == len(tiny_specs())  # all recomputed
    assert rerun.counters.quarantined == len(corrupted)
    assert rerun.cache.stats.quarantined == len(corrupted)
    # Evidence preserved, clean entries reinstalled.
    assert len(list(cache_dir.glob("*/*.corrupt"))) == len(corrupted)
    warm_again = Orchestrator(jobs=1, cache_dir=cache_dir)
    warm_again.run_specs(tiny_specs())
    assert warm_again.counters.executed == 0


def test_chaos_is_deterministic_per_seed(tmp_path):
    """Same seed, same strikes: the marker sets of two runs coincide."""
    def strike_names(run):
        marker_dir = tmp_path / f"run{run}"
        chaos = ChaosConfig(
            seed=5, marker_dir=str(marker_dir), kill_fraction=0.5
        )
        # Up to 3 of the 4 specs can be kill-typed, so a job can be
        # charged as an innocent bystander on up to 3 crash waves; the
        # retry budget must cover that worst case or the run aborts on
        # scheduling luck.  This test pins marker determinism, not the
        # retry budget.
        orchestrator = Orchestrator(
            jobs=2, retries=4, backoff=0.01, executor=chaos.executor()
        )
        orchestrator.run_specs(tiny_specs(4))
        return sorted(p.name for p in marker_dir.glob("*.kill"))

    first, second = strike_names(1), strike_names(2)
    assert first == second
    assert 0 < len(first) < 4  # the 50% coin split the batch


def test_journal_survives_chaos_and_resume_runs_nothing(tmp_path, baseline):
    """Kills + journal: the second invocation replays, executes zero."""
    journal = tmp_path / "sweep.journal"
    chaos = ChaosConfig(
        seed=7, marker_dir=str(tmp_path / "markers"), kill_fraction=1.0
    )
    stormy = Orchestrator(
        jobs=2, retries=2, backoff=0.01, executor=chaos.executor(),
        journal=journal,
    )
    outcomes = stormy.run_specs(tiny_specs())
    assert summaries(outcomes) == baseline

    resumed = Orchestrator(jobs=1, journal=journal)
    replayed = resumed.run_specs(tiny_specs())
    assert resumed.counters.executed == 0
    assert resumed.counters.journal_hits == len(tiny_specs())
    assert summaries(replayed) == baseline
