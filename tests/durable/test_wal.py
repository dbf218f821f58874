"""The event WAL: LSN ordering, torn tails, compaction, fsync policy."""

import pytest

from repro.durable.wal import WAL_SCHEMA_VERSION, EventWAL
from repro.errors import ConfigurationError


def wal_at(tmp_path, **kwargs):
    """A fresh EventWAL under the test's temp directory."""
    return EventWAL(tmp_path / "events.wal", **kwargs)


def test_append_assigns_consecutive_lsns(tmp_path):
    wal = wal_at(tmp_path)
    lsns = [wal.append({"kind": "admit", "pid": p}) for p in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    assert wal.last_lsn == 5
    assert [lsn for lsn, _ in wal.replay(0)] == lsns


def test_replay_after_lsn_is_strict(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(4):
        wal.append({"pid": p})
    tail = wal.replay(2)
    assert [lsn for lsn, _ in tail] == [3, 4]
    assert [event["pid"] for _, event in tail] == [2, 3]


def test_reopened_wal_continues_the_sequence(tmp_path):
    wal_at(tmp_path).append({"pid": 1})
    reopened = wal_at(tmp_path)
    assert reopened.append({"pid": 2}) == 2


def test_torn_tail_is_skipped_by_replay(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(3):
        wal.append({"pid": p})
    # Simulate a crash mid-append: a partial record with no newline.
    with open(wal.path, "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "lsn": 4, "ev')
    reopened = wal_at(tmp_path)
    assert [lsn for lsn, _ in reopened.replay(0)] == [1, 2, 3]
    assert reopened.corrupt_lines == 1


def test_torn_tail_is_truncated_before_the_next_append(tmp_path):
    # A record appended behind a torn line would be durable yet
    # invisible to strict replay — the first append must repair first.
    wal = wal_at(tmp_path)
    for p in range(3):
        wal.append({"pid": p})
    with open(wal.path, "a", encoding="ascii") as handle:
        handle.write("garbage that never ends")
    reopened = wal_at(tmp_path)
    assert reopened.append({"pid": 99}) == 4
    fresh = wal_at(tmp_path)
    assert [lsn for lsn, _ in fresh.replay(0)] == [1, 2, 3, 4]
    assert fresh.corrupt_lines == 0


def test_garbled_middle_ends_trustworthy_history(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(4):
        wal.append({"pid": p})
    lines = wal.path.read_text(encoding="ascii").splitlines(keepends=True)
    lines[1] = "}}corrupt{{\n"
    wal.path.write_text("".join(lines), encoding="ascii")
    reopened = wal_at(tmp_path)
    # Records past the corruption have no trustworthy ordering.
    assert [lsn for lsn, _ in reopened.replay(0)] == [1]
    assert reopened.corrupt_lines == 1


def test_out_of_sequence_lsn_ends_replay(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(3):
        wal.append({"pid": p})
    lines = wal.path.read_text(encoding="ascii").splitlines(keepends=True)
    del lines[1]  # a gap: 1, 3
    wal.path.write_text("".join(lines), encoding="ascii")
    assert [lsn for lsn, _ in wal_at(tmp_path).replay(0)] == [1]


def test_wrong_schema_version_is_corruption(tmp_path):
    wal = wal_at(tmp_path)
    wal.append({"pid": 1})
    text = wal.path.read_text(encoding="ascii")
    wal.path.write_text(
        text.replace(f'"version":{WAL_SCHEMA_VERSION}', '"version":99'),
        encoding="ascii",
    )
    assert wal_at(tmp_path).replay(0) == []


def test_compact_drops_covered_records_but_keeps_the_anchor(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(6):
        wal.append({"pid": p})
    assert wal.compact(4) == 2
    assert [lsn for lsn, _ in wal.replay(0)] == [5, 6]
    # Fully covered: the newest record survives as the LSN anchor.
    assert wal.compact(6) == 1
    assert [lsn for lsn, _ in wal.replay(0)] == [6]
    assert wal.append({"pid": 99}) == 7
    reopened = wal_at(tmp_path)
    assert reopened.last_lsn == 7


def test_compact_on_an_empty_wal_is_a_noop(tmp_path):
    wal = wal_at(tmp_path)
    assert wal.compact(0) == 0
    assert wal.last_lsn == 0


def test_fsync_every_batches_syncs(tmp_path):
    wal = wal_at(tmp_path, fsync_every=3)
    for p in range(7):
        wal.append({"pid": p})
    assert wal.fsyncs == 2  # after records 3 and 6
    wal.sync()
    assert wal.fsyncs == 3  # the deferred seventh record
    wal.sync()
    assert wal.fsyncs == 3  # nothing pending: no extra fsync


def test_len_counts_intact_records(tmp_path):
    wal = wal_at(tmp_path)
    assert len(wal) == 0
    wal.append({"pid": 1})
    assert len(wal) == 1


def test_constructor_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        EventWAL(tmp_path / "log", fsync_every=0)
    (tmp_path / "adir").mkdir()
    with pytest.raises(ConfigurationError):
        EventWAL(tmp_path / "adir")


def test_a_non_ascii_byte_costs_only_its_own_line(tmp_path):
    wal = wal_at(tmp_path)
    for p in range(5):
        wal.append({"pid": p})
    wal.close()
    data = bytearray(wal.path.read_bytes())
    data[len(data) - 4] = 0xE9  # inside the last record
    wal.path.write_bytes(bytes(data))
    reopened = wal_at(tmp_path)
    assert [lsn for lsn, _ in reopened.replay(0)] == [1, 2, 3, 4]
    assert reopened.corrupt_lines == 1
    assert reopened.append({"pid": 99}) == 5
    assert [lsn for lsn, _ in wal_at(tmp_path).replay(0)] == [1, 2, 3, 4, 5]
