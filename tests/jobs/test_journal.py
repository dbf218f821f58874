"""Write-ahead journal semantics: durability, torn tails, and resume.

The contract under test: a spec recorded in the journal is never
re-executed, an interrupted append never poisons the journal, and a
resumed batch runs exactly the specs that had not finished.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.jobs import (
    JOURNAL_SCHEMA_VERSION,
    Orchestrator,
    RunJournal,
    make_run_spec,
    spec_key,
)
from repro.jobs.spec import WorkloadSpec
from repro.perf.machine import core2duo

OUTCOME = {"wall_cycles": 1.0, "l2_miss_rate": 0.0, "tasks": []}


def tiny_spec(seed=0):
    """A cheap pinned-mapping measurement spec."""
    return make_run_spec(
        core2duo(),
        WorkloadSpec(kind="spec", names=("mcf", "povray"),
                     instructions=100_000, seed=seed),
        mapping=[[0], [1]],
    )


def test_record_then_load_roundtrip(tmp_path):
    journal = RunJournal(tmp_path / "sweep.journal")
    journal.record("k1", OUTCOME)
    journal.record("k2", dict(OUTCOME, wall_cycles=2.0))
    replayed = RunJournal(tmp_path / "sweep.journal").load()
    assert replayed == {"k1": OUTCOME, "k2": dict(OUTCOME, wall_cycles=2.0)}
    assert len(journal) == 2


def test_missing_file_loads_empty(tmp_path):
    assert RunJournal(tmp_path / "never-written").load() == {}


def test_directory_path_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="directory"):
        RunJournal(tmp_path)


def test_torn_tail_is_skipped_not_raised(tmp_path):
    """An interrupted append (half a line, no newline) never poisons it."""
    path = tmp_path / "sweep.journal"
    journal = RunJournal(path)
    journal.record("k1", OUTCOME)
    with open(path, "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "key": "k2", "outco')  # torn mid-write
    loaded = RunJournal(path)
    assert loaded.load() == {"k1": OUTCOME}
    assert loaded.corrupt_lines == 1
    # A post-crash append after the torn tail is still readable.
    loaded.record("k3", OUTCOME)
    assert set(loaded.load()) == {"k1", "k3"}


def test_garbled_and_wrong_version_lines_are_skipped(tmp_path):
    path = tmp_path / "sweep.journal"
    records = [
        "not json at all",
        json.dumps({"version": JOURNAL_SCHEMA_VERSION + 1, "key": "x", "outcome": {}}),
        json.dumps({"version": JOURNAL_SCHEMA_VERSION, "key": 7, "outcome": {}}),
        json.dumps({"version": JOURNAL_SCHEMA_VERSION, "key": "ok", "outcome": OUTCOME}),
    ]
    path.write_text("\n".join(records) + "\n", encoding="ascii")
    journal = RunJournal(path)
    assert journal.load() == {"ok": OUTCOME}
    assert journal.corrupt_lines == 3



def test_a_non_ascii_byte_loses_only_its_line(tmp_path):
    path = tmp_path / "sweep.journal"
    journal = RunJournal(path)
    for key in ("k1", "k2", "k3"):
        journal.record(key, OUTCOME)
    journal.close()
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"k2"', b'"k\xe9"')  # one flipped byte
    path.write_bytes(b"\n".join(lines))
    loaded = RunJournal(path)
    assert loaded.load() == {"k1": OUTCOME, "k3": OUTCOME}
    assert loaded.corrupt_lines == 1

def test_duplicate_keys_last_record_wins(tmp_path):
    journal = RunJournal(tmp_path / "sweep.journal")
    journal.record("k", OUTCOME)
    journal.record("k", dict(OUTCOME, wall_cycles=9.0))
    assert journal.load()["k"]["wall_cycles"] == 9.0


def test_duplicate_key_replay_survives_a_torn_tail_between_them(tmp_path):
    """Crash-rewrite-resume: the re-recorded outcome wins on replay.

    The sequence a crashed-and-resumed sweep actually produces — record,
    torn append, record the same key again — must replay to the *last*
    complete record, with the torn line counted and isolated.
    """
    path = tmp_path / "sweep.journal"
    journal = RunJournal(path)
    journal.record("k", OUTCOME)
    with open(path, "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "key": "k", "outco')  # crash mid-write
    resumed = RunJournal(path)
    resumed.record("k", dict(OUTCOME, wall_cycles=7.0))
    replayed = RunJournal(path)
    assert replayed.load()["k"]["wall_cycles"] == 7.0
    assert replayed.corrupt_lines == 1


def test_resume_executes_only_unfinished_specs(tmp_path):
    """The acceptance pin: a resumed batch re-runs exactly the misses."""
    journal_path = tmp_path / "sweep.journal"
    specs = [tiny_spec(seed=s) for s in (0, 1, 2)]

    first = Orchestrator(jobs=1, journal=journal_path)
    outcomes = first.run_specs(specs)
    assert first.counters.executed == len(specs)
    assert len(RunJournal(journal_path)) == len(specs)

    resumed = Orchestrator(jobs=1, journal=journal_path)
    replayed = resumed.run_specs(specs)
    assert resumed.counters.executed == 0
    assert resumed.counters.journal_hits == len(specs)
    assert all(outcome.cached for outcome in replayed)
    assert replayed == outcomes


def test_partial_journal_resumes_the_remainder(tmp_path):
    """Only the spec missing from the journal is executed on resume."""
    journal_path = tmp_path / "sweep.journal"
    specs = [tiny_spec(seed=s) for s in (0, 1)]
    complete = Orchestrator(jobs=1).run_specs(specs)

    # Journal as if the sweep crashed after finishing only the first spec.
    RunJournal(journal_path).record(spec_key(specs[0]), complete[0].to_dict())

    resumed = Orchestrator(jobs=1, journal=journal_path)
    outcomes = resumed.run_specs(specs)
    assert resumed.counters.journal_hits == 1
    assert resumed.counters.executed == 1
    assert outcomes[0].cached and not outcomes[1].cached
    assert outcomes == complete
    # The freshly executed spec was journaled: a second resume runs nothing.
    again = Orchestrator(jobs=1, journal=journal_path)
    again.run_specs(specs)
    assert again.counters.executed == 0
