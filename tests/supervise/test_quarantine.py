"""Poison-quarantine durability: roundtrip, torn tails, last-write-wins."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.supervise.quarantine import (
    QUARANTINE_SCHEMA_VERSION,
    PoisonQuarantine,
)


def test_add_then_reload_roundtrip(tmp_path):
    path = tmp_path / "poison.jsonl"
    quarantine = PoisonQuarantine(path)
    quarantine.add("k1", reason="hung: no heartbeat", failures=3)
    quarantine.add("k2", reason="error: boom", failures=4)

    fresh = PoisonQuarantine(path)  # a later process
    assert "k1" in fresh and "k2" in fresh
    assert len(fresh) == 2
    assert fresh.keys() == ["k1", "k2"]
    assert fresh.reason("k1") == "hung: no heartbeat"
    assert fresh.reason("missing") is None


def test_missing_file_is_empty(tmp_path):
    quarantine = PoisonQuarantine(tmp_path / "never-written")
    assert len(quarantine) == 0
    assert "k" not in quarantine


def test_directory_path_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="directory"):
        PoisonQuarantine(tmp_path)


def test_duplicate_keys_last_record_wins(tmp_path):
    path = tmp_path / "poison.jsonl"
    quarantine = PoisonQuarantine(path)
    quarantine.add("k", reason="first", failures=3)
    quarantine.add("k", reason="second", failures=5)
    assert len(quarantine) == 1
    assert PoisonQuarantine(path).reason("k") == "second"


def test_torn_tail_is_skipped_and_isolated(tmp_path):
    path = tmp_path / "poison.jsonl"
    PoisonQuarantine(path).add("k1", reason="ok")
    with open(path, "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "key": "k2", "reas')  # crash mid-append

    reloaded = PoisonQuarantine(path)
    assert reloaded.keys() == ["k1"]
    assert reloaded.corrupt_lines == 1
    # The next append starts on a fresh line, so k3 is readable.
    reloaded.add("k3", reason="after the crash")
    assert PoisonQuarantine(path).keys() == ["k1", "k3"]


def test_garbled_and_wrong_version_lines_are_counted(tmp_path):
    path = tmp_path / "poison.jsonl"
    lines = [
        "not json",
        json.dumps({"version": QUARANTINE_SCHEMA_VERSION + 1, "key": "x"}),
        json.dumps({"version": QUARANTINE_SCHEMA_VERSION, "key": ""}),
        json.dumps(
            {"version": QUARANTINE_SCHEMA_VERSION, "key": "ok", "reason": "r"}
        ),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    quarantine = PoisonQuarantine(path)
    assert quarantine.keys() == ["ok"]
    assert quarantine.corrupt_lines == 3



def test_a_non_ascii_byte_loses_only_its_line(tmp_path):
    path = tmp_path / "poison.jsonl"
    quarantine = PoisonQuarantine(path)
    for key in ("k1", "k2", "k3"):
        quarantine.add(key, reason="r")
    quarantine.close()
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"k2"', b'"k\xe9"')  # one flipped byte
    path.write_bytes(b"\n".join(lines))
    reloaded = PoisonQuarantine(path)
    assert reloaded.keys() == ["k1", "k3"]
    assert reloaded.corrupt_lines == 1

def test_reload_picks_up_another_writer(tmp_path):
    path = tmp_path / "poison.jsonl"
    mine = PoisonQuarantine(path)
    PoisonQuarantine(path).add("theirs", reason="other process")
    assert "theirs" not in mine
    mine.reload()
    assert "theirs" in mine
