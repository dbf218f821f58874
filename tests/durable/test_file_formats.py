"""Golden on-disk bytes of every durable store.

Journals, quarantines and state directories written by earlier builds
must still resume and recover, so the exact bytes each writer produces
for fixed inputs are pinned here, and each reader must load them back.
"""

from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import EventWAL
from repro.jobs.cache import ResultCache
from repro.jobs.journal import RunJournal
from repro.supervise.quarantine import PoisonQuarantine

OUTCOME = {
    "wall_cycles": 123.0,
    "l2_miss_rate": 0.25,
    "tasks": [{"name": "mcf", "ipc": 0.5}],
}
SPEC = {"seed": 7, "workload": {"names": ["mcf", "povray"]}}
KEY = "ab" + "0" * 62
STATE = {"registry": {"processes": {}}, "counters": {"events_processed": 7}}
EVENTS = [
    {"kind": "admit", "pid": 1},
    {"kind": "phase_change", "pid": 1, "phase": 2},
    {"kind": "retire", "pid": 1},
]

JOURNAL_BYTES = (
    b'{"key":"k1","outcome":{"l2_miss_rate":0.25,"tasks":[{"ipc":0.5,'
    b'"name":"mcf"}],"wall_cycles":123.0},"version":1}\n'
    b'{"key":"k2","outcome":{"l2_miss_rate":0.25,"tasks":[{"ipc":0.5,'
    b'"name":"mcf"}],"wall_cycles":2.5},"version":1}\n'
)
QUARANTINE_BYTES = (
    b'{"failures":3,"key":"k1","reason":"hung: no heartbeat","version":1}\n'
    b'{"failures":4,"key":"k2","reason":"error: boom","version":1}\n'
)
WAL_BYTES = (
    b'{"event":{"kind":"admit","pid":1},"lsn":1,"version":1}\n'
    b'{"event":{"kind":"phase_change","phase":2,"pid":1},"lsn":2,'
    b'"version":1}\n'
    b'{"event":{"kind":"retire","pid":1},"lsn":3,"version":1}\n'
)
COMPACTED_WAL_BYTES = (
    b'{"event":{"kind":"retire","pid":1},"lsn":3,"version":1}\n'
)
SNAPSHOT_BYTES = (
    b'{"checksum":"a710be1b6770c56457bfa4f9d07ef2269ee997b3ecd14fd02dafa85'
    b'68177c0ec","last_lsn":41,"state":{"counters":{"events_processed":7},'
    b'"registry":{"processes":{}}},"version":1}\n'
)
CACHE_BYTES = (
    b'{"key":"' + KEY.encode("ascii") + b'","outcome":{"l2_miss_rate":0.25,'
    b'"tasks":[{"ipc":0.5,"name":"mcf"}],"wall_cycles":123.0},'
    b'"spec":{"seed":7,"workload":{"names":["mcf","povray"]}},"version":1}'
)


def test_journal_bytes(tmp_path):
    journal = RunJournal(tmp_path / "sweep.journal")
    journal.record("k1", OUTCOME)
    journal.record("k2", dict(OUTCOME, wall_cycles=2.5))
    journal.close()
    assert journal.path.read_bytes() == JOURNAL_BYTES


def test_journal_reads_golden_bytes(tmp_path):
    path = tmp_path / "sweep.journal"
    path.write_bytes(JOURNAL_BYTES)
    loaded = RunJournal(path)
    assert loaded.load() == {"k1": OUTCOME, "k2": dict(OUTCOME, wall_cycles=2.5)}
    assert loaded.corrupt_lines == 0


def test_quarantine_bytes(tmp_path):
    quarantine = PoisonQuarantine(tmp_path / "poison.jsonl")
    quarantine.add("k1", reason="hung: no heartbeat", failures=3)
    quarantine.add("k2", reason="error: boom", failures=4)
    quarantine.close()
    assert quarantine.path.read_bytes() == QUARANTINE_BYTES


def test_quarantine_reads_golden_bytes(tmp_path):
    path = tmp_path / "poison.jsonl"
    path.write_bytes(QUARANTINE_BYTES)
    loaded = PoisonQuarantine(path)
    assert loaded.keys() == ["k1", "k2"]
    assert loaded.reason("k1") == "hung: no heartbeat"
    assert loaded.corrupt_lines == 0


def test_wal_bytes_before_and_after_compaction(tmp_path):
    wal = EventWAL(tmp_path / "state" / "events.wal")
    for event in EVENTS:
        wal.append(event)
    assert wal.path.read_bytes() == WAL_BYTES
    assert wal.compact(2) == 1
    assert wal.path.read_bytes() == COMPACTED_WAL_BYTES
    wal.close()


def test_wal_reads_golden_bytes(tmp_path):
    path = tmp_path / "events.wal"
    path.write_bytes(WAL_BYTES)
    assert EventWAL(path).replay(0) == list(enumerate(EVENTS, start=1))
    path.write_bytes(COMPACTED_WAL_BYTES)
    reopened = EventWAL(path)
    assert reopened.replay(0) == [(3, EVENTS[2])]
    assert reopened.last_lsn == 3


def test_snapshot_bytes(tmp_path):
    store = SnapshotStore(tmp_path / "state")
    assert store.save(STATE, last_lsn=41).read_bytes() == SNAPSHOT_BYTES


def test_snapshot_reads_golden_bytes(tmp_path):
    store = SnapshotStore(tmp_path)
    store.path.write_bytes(SNAPSHOT_BYTES)
    assert store.load() == (STATE, 41)
    assert store.corrupt == 0


def test_cache_entry_bytes(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(KEY, SPEC, OUTCOME).read_bytes() == CACHE_BYTES


def test_cache_reads_golden_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(CACHE_BYTES)
    assert cache.get(KEY) == OUTCOME
    assert cache.stats.hits == 1 and cache.stats.corrupt == 0
