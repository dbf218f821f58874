"""Kept-open log handles: opened once, reopened after a replace, closed.

The append logs under the WAL, the run journal and the poison
quarantine keep their file open between appends. These tests pin when
the file is opened, that a handle never outlives the inode it points
at, that a tail torn by another writer is still isolated, and that the
owners close what they open.
"""

import asyncio
import gc
import warnings

import repro.fileio as fileio
from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.manager import DurabilityManager
from repro.durable.wal import EventWAL
from repro.jobs import Orchestrator, RunJournal, make_run_spec
from repro.jobs.spec import WorkloadSpec
from repro.perf.machine import core2duo
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import event_from_arrival
from repro.supervise.quarantine import PoisonQuarantine
from repro.workloads.arrivals import poisson_trace

OUTCOME = {"wall_cycles": 1.0, "l2_miss_rate": 0.0, "tasks": []}


def count_opens(monkeypatch):
    """Count the files the append logs open (by path)."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(fileio, "open", counting_open, raising=False)
    return opened


def resource_warnings(drop, under):
    """ResourceWarnings naming a file *under* a directory, raised while
    *drop* releases objects and the collector runs."""
    gc.collect()  # garbage left by earlier tests is not this test's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        drop()
        gc.collect()
    return [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and str(under) in str(w.message)
    ]


def test_wal_opens_its_file_once_and_again_after_each_compact(
    tmp_path, monkeypatch
):
    opened = count_opens(monkeypatch)
    wal = EventWAL(tmp_path / "events.wal")
    for pid in range(100):
        wal.append({"pid": pid})
    assert len(opened) == 1
    for round_number in range(1, 4):
        wal.compact(wal.last_lsn - 1)
        for pid in range(10):
            wal.append({"pid": pid})
        assert len(opened) == 1 + round_number
    assert [lsn for lsn, _ in wal.replay(0)] == list(range(120, 131))
    wal.close()


def test_torn_tail_repair_reopens_the_replaced_file(tmp_path, monkeypatch):
    wal = EventWAL(tmp_path / "events.wal")
    for pid in range(3):
        wal.append({"pid": pid})
    wal.close()
    with open(wal.path, "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "lsn": 4, "ev')
    opened = count_opens(monkeypatch)
    reopened = EventWAL(wal.path)
    assert [reopened.append({"pid": p}) for p in (4, 5)] == [4, 5]
    assert len(opened) == 1
    reopened.close()
    fresh = EventWAL(wal.path)
    assert [lsn for lsn, _ in fresh.replay(0)] == [1, 2, 3, 4, 5]
    assert fresh.corrupt_lines == 0


def test_closed_wal_reopens_on_its_next_append(tmp_path, monkeypatch):
    opened = count_opens(monkeypatch)
    wal = EventWAL(tmp_path / "events.wal", fsync_every=4)
    wal.append({"pid": 1})
    wal.close()
    wal.sync()  # the deferred record is still forced to disk
    assert wal.fsyncs == 1
    assert wal.append({"pid": 2}) == 2
    assert [lsn for lsn, _ in wal.replay(0)] == [1, 2]
    assert len(opened) == 2  # the sync reopened it; the append reused it
    wal.close()


def test_journal_isolates_a_tail_torn_behind_its_open_handle(tmp_path):
    path = tmp_path / "sweep.journal"
    journal = RunJournal(path)
    journal.record("k1", OUTCOME)  # the handle is open from here on
    with open(path, "a", encoding="ascii") as other_writer:
        other_writer.write('{"version": 1, "key": "k2", "outco')
    journal.record("k3", OUTCOME)
    journal.close()
    replayed = RunJournal(path)
    assert replayed.load() == {"k1": OUTCOME, "k3": OUTCOME}
    assert replayed.corrupt_lines == 1


def test_quarantine_isolates_a_tail_torn_behind_its_open_handle(tmp_path):
    path = tmp_path / "poison.jsonl"
    quarantine = PoisonQuarantine(path)
    quarantine.add("k1", reason="first")  # the handle is open from here on
    with open(path, "a", encoding="ascii") as other_writer:
        other_writer.write('{"version": 1, "key": "k2", "reas')
    quarantine.add("k3", reason="after the tear")
    quarantine.close()
    reloaded = PoisonQuarantine(path)
    assert reloaded.keys() == ["k1", "k3"]
    assert reloaded.corrupt_lines == 1


def test_service_stop_closes_the_wal(tmp_path):
    durability = DurabilityManager(tmp_path / "state", snapshot_interval=8)
    service = SchedulerService(
        WeightSortPolicy(), ServiceConfig(num_cores=4), durability=durability
    )
    events = [event_from_arrival(a) for a in poisson_trace(20, seed=3)]

    async def run():
        await service.start()
        for event in events:
            await service.submit_event(event)
        await service.stop(drain=True)

    asyncio.run(run())
    assert durability.wal.records_written == len(events)

    def drop():
        nonlocal service, durability
        service = durability = None

    assert resource_warnings(drop, tmp_path) == []


def test_run_specs_closes_the_journal(tmp_path):
    journal_path = tmp_path / "sweep.journal"
    spec = make_run_spec(
        core2duo(),
        WorkloadSpec(kind="spec", names=("mcf", "povray"), instructions=100_000),
        mapping=[[0], [1]],
        seed=0,
    )
    orchestrator = Orchestrator(jobs=1, journal=journal_path)
    orchestrator.run_specs([spec])
    assert orchestrator.journal.records_written == 1

    def drop():
        nonlocal orchestrator
        orchestrator = None

    assert resource_warnings(drop, tmp_path) == []
    assert len(RunJournal(journal_path)) == 1
