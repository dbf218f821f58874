"""DurabilityManager: write-ahead ordering, checkpoint cadence, loading."""

import pytest

from repro.durable.manager import DurabilityManager
from repro.errors import ConfigurationError


def test_record_event_appends_before_anything_else(tmp_path):
    manager = DurabilityManager(tmp_path)
    assert manager.record_event({"kind": "admit", "pid": 1}) == 1
    assert manager.record_event({"kind": "retire", "pid": 1}) == 2
    assert [lsn for lsn, _ in manager.wal.replay(0)] == [1, 2]


def test_note_applied_checkpoints_on_the_interval(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=3)
    captured = []

    def capture():
        captured.append(True)
        return {"population": len(captured)}

    for event_number in range(1, 7):
        manager.record_event({"n": event_number})
        checkpointed = manager.note_applied(capture)
        assert checkpointed is (event_number % 3 == 0)
    # capture() ran only when a snapshot was actually due.
    assert len(captured) == 2
    assert manager.checkpoints == 2
    state, last_lsn = manager.snapshots.load()
    assert state == {"population": 2} and last_lsn == 6
    # The WAL was compacted behind the snapshot (anchor record only).
    assert [lsn for lsn, _ in manager.wal.replay(last_lsn)] == []


def test_load_returns_snapshot_plus_wal_tail(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=2)
    for event_number in range(1, 6):  # snapshot at 2 and 4; tail = [5]
        manager.record_event({"n": event_number})
        manager.note_applied(lambda: {"upto": event_number})
    state, snapshot_lsn, tail = DurabilityManager(tmp_path).load()
    assert state == {"upto": 4} and snapshot_lsn == 4
    assert [(lsn, event["n"]) for lsn, event in tail] == [(5, 5)]


def test_load_without_any_state_is_empty(tmp_path):
    state, snapshot_lsn, tail = DurabilityManager(tmp_path / "fresh").load()
    assert state is None and snapshot_lsn == 0 and tail == []


def test_load_falls_back_to_full_wal_on_corrupt_snapshot(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=100)
    for event_number in range(3):
        manager.record_event({"n": event_number})
    (tmp_path / "snapshot.json").write_text("garbage", encoding="ascii")
    fresh = DurabilityManager(tmp_path)
    state, snapshot_lsn, tail = fresh.load()
    assert state is None and snapshot_lsn == 0
    assert [lsn for lsn, _ in tail] == [1, 2, 3]
    assert fresh.snapshots.corrupt == 1


def test_status_payload(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=5)
    manager.record_event({"n": 1})
    manager.note_applied(lambda: {})
    status = manager.status()
    assert status["state_dir"] == str(tmp_path)
    assert status["snapshot_interval"] == 5
    assert status["wal_last_lsn"] == 1
    assert status["wal_records_written"] == 1
    assert status["checkpoints"] == 0
    assert status["events_since_snapshot"] == 1


def test_constructor_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        DurabilityManager(tmp_path, snapshot_interval=0)
    blocker = tmp_path / "blocker"
    blocker.write_text("file", encoding="ascii")
    with pytest.raises(ConfigurationError):
        DurabilityManager(blocker)


def tear_last_line(path):
    """Chop the final record mid-line, as a crash or bit rot would."""
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1 + 10])


def test_numbering_continues_past_the_snapshot_when_the_wal_is_lost(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=2)
    for event_number in range(1, 5):  # snapshots at 2 and 4
        manager.record_event({"n": event_number})
        manager.note_applied(lambda: {"upto": event_number})
    manager.close()
    # Compaction left one anchor record (LSN 4); tearing it loses every
    # record the WAL had.
    assert [lsn for lsn, _ in manager.wal.replay(0)] == [4]
    tear_last_line(manager.wal.path)
    fresh = DurabilityManager(tmp_path, snapshot_interval=2)
    assert fresh.record_event({"n": 5}) == 5
    state, snapshot_lsn, tail = DurabilityManager(tmp_path).load()
    assert state == {"upto": 4} and snapshot_lsn == 4
    assert [(lsn, event["n"]) for lsn, event in tail] == [(5, 5)]


def test_records_the_snapshot_covers_are_dropped_not_left_behind_a_gap(
    tmp_path,
):
    # A snapshot ahead of the WAL's last intact record: the records it
    # covers must go, or strict replay would stop at the LSN gap before
    # the next event.
    manager = DurabilityManager(tmp_path, snapshot_interval=100)
    for event_number in range(1, 4):
        manager.record_event({"n": event_number})
    manager.snapshots.save({"upto": 5}, 5)
    manager.close()
    fresh = DurabilityManager(tmp_path)
    assert fresh.record_event({"n": 6}) == 6
    state, snapshot_lsn, tail = DurabilityManager(tmp_path).load()
    assert snapshot_lsn == 5
    assert [(lsn, event["n"]) for lsn, event in tail] == [(6, 6)]


def test_the_snapshot_is_read_once_per_manager(tmp_path, monkeypatch):
    manager = DurabilityManager(tmp_path, snapshot_interval=2)
    for event_number in range(1, 4):
        manager.record_event({"n": event_number})
        manager.note_applied(lambda: {"upto": event_number})
    manager.close()
    fresh = DurabilityManager(tmp_path, snapshot_interval=2)
    reads = []
    load = fresh.snapshots.load
    monkeypatch.setattr(
        fresh.snapshots, "load", lambda: reads.append(1) or load()
    )
    for event_number in range(4, 9):
        fresh.record_event({"n": event_number})
    assert reads == [1]
