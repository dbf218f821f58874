"""Orchestrator acceptance: determinism, dedup, and the warm cache.

The load-bearing claims from the subsystem's contract:

* parallel and serial execution of the same batch produce *identical*
  outcomes (``jobs=4`` vs ``jobs=1`` — byte-identical sweep summaries);
* duplicate specs in a batch execute once;
* a warm-cache re-run performs **zero** new simulations.
"""

import pytest

from repro.alloc import WeightedInterferenceGraphPolicy
from repro.jobs import Orchestrator, RunOutcome, make_run_spec, spec_key
from repro.jobs.spec import WorkloadSpec
from repro.perf.experiment import mix_sweep, two_phase
from repro.perf.machine import core2duo

MIX = ["mcf", "povray", "milc", "astar"]
FAST = dict(instructions=150_000, phase1_min_wall=10_000_000.0)


def tiny_spec(names=("mcf", "povray"), seed=0):
    """A cheap pinned-mapping measurement spec."""
    return make_run_spec(
        core2duo(),
        WorkloadSpec(kind="spec", names=tuple(names), instructions=100_000,
                     seed=seed),
        mapping=[[0], [1]],
    )


def test_two_phase_parallel_equals_serial():
    """The 4-task mix acceptance check: jobs=2 == jobs=1, field by field."""
    serial = two_phase(
        core2duo(), MIX, WeightedInterferenceGraphPolicy(seed=3),
        seed=3, orchestrator=Orchestrator(jobs=1), **FAST,
    )
    parallel = two_phase(
        core2duo(), MIX, WeightedInterferenceGraphPolicy(seed=3),
        seed=3, orchestrator=Orchestrator(jobs=2), **FAST,
    )
    assert serial.chosen_mapping == parallel.chosen_mapping
    assert serial.decisions == parallel.decisions
    assert serial.mapping_times == parallel.mapping_times


def test_mix_sweep_summary_is_byte_identical_across_jobs():
    """Acceptance: jobs=4 sweep summary reprs byte-equal to jobs=1."""
    mixes = [MIX, ["libquantum", "hmmer", "gobmk", "sjeng"]]

    def sweep(jobs):
        return mix_sweep(
            core2duo(), mixes, WeightedInterferenceGraphPolicy(seed=3),
            seed=3, orchestrator=Orchestrator(jobs=jobs), **FAST,
        )

    assert repr(sweep(1).summary()) == repr(sweep(4).summary())


def test_batch_dedupes_identical_specs():
    orchestrator = Orchestrator(jobs=1)
    spec = tiny_spec()
    a, b = orchestrator.run_specs([spec, tiny_spec()])
    assert a == b
    counters = orchestrator.counters
    assert counters.submitted == 1
    assert counters.deduped == 1
    assert counters.executed == 1


def test_warm_cache_runs_zero_simulations(tmp_path):
    """Acceptance: a warm-cache re-run shows counters.executed == 0."""
    specs = [tiny_spec(seed=s) for s in (0, 1, 2)]
    cold = Orchestrator(jobs=1, cache_dir=tmp_path)
    first = cold.run_specs(specs)
    assert cold.counters.executed == len(specs)
    assert cold.cache.stats.writes == len(specs)

    warm = Orchestrator(jobs=1, cache_dir=tmp_path)
    second = warm.run_specs(specs)
    assert warm.counters.executed == 0
    assert warm.counters.cache_hits == len(specs)
    assert all(outcome.cached for outcome in second)
    # cached flag is excluded from equality: same physics, same outcome.
    assert second == first


def test_cached_outcome_roundtrips_losslessly(tmp_path):
    spec = tiny_spec()
    orchestrator = Orchestrator(jobs=1, cache_dir=tmp_path)
    outcome = orchestrator.run_spec(spec)
    stored = orchestrator.cache.get(spec_key(spec))
    assert RunOutcome.from_dict(stored) == outcome
    assert outcome.user_time("mcf") > 0
    with pytest.raises(Exception):
        outcome.user_time("not-in-this-mix")
