"""The event write-ahead log: fsynced, sequence-numbered, torn-tail safe.

One append-only file of newline-framed JSON records::

    {"version": 1, "lsn": 17, "event": {"kind": "admit", ...}}\n

Each record carries a monotonically increasing **log sequence number**
(LSN). The LSN is what makes this a WAL rather than a plain journal:

* replay is ordered and gap-checked — a record whose LSN does not
  continue the sequence marks the end of trustworthy history, so a
  corrupted *middle* can never splice stale events into a recovery;
* snapshots record the LSN they cover, and replay starts strictly
  after it — an event is applied at most once across any number of
  crash/recover cycles;
* :meth:`EventWAL.compact` discards records a published snapshot
  already covers, atomically (:func:`repro.fileio.publish`), so the
  log's length is bounded by the snapshot interval rather than by
  uptime.

Durability policy: every append is one full line written through a
kept-open :class:`repro.fileio.AppendLog` and flushed to the OS before
:meth:`EventWAL.append` returns — a ``kill -9`` never loses an appended
record. ``fsync`` (power-loss durability) runs every ``fsync_every``
appends (default 1: every record); raising it trades a bounded
power-loss window for throughput, recorded in the
``durable_wal_fsyncs_total`` metric.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fileio import AppendLog, publish
from repro.jobs.keys import canonical_json

__all__ = ["WAL_SCHEMA_VERSION", "EventWAL"]

#: Version of the WAL record schema; bump to orphan old logs.
WAL_SCHEMA_VERSION = 1


def _line(lsn: int, event: Dict[str, Any]) -> str:
    return canonical_json(
        {"version": WAL_SCHEMA_VERSION, "lsn": lsn, "event": event}
    )


def _parse(record: Any) -> Tuple[int, Dict[str, Any]]:
    """``(lsn, event)`` of one WAL line; raises on a bad record."""
    if record["version"] != WAL_SCHEMA_VERSION:
        raise ValueError("WAL schema mismatch")
    lsn = record["lsn"]
    event = record["event"]
    if not isinstance(lsn, int) or not isinstance(event, dict):
        raise ValueError("malformed WAL record")
    return lsn, event


class EventWAL:
    """Append-only, LSN-ordered event log under one file path.

    Parameters
    ----------
    path:
        Log file; created (with parents) on the first append. An
        existing directory at this path is rejected immediately.
    fsync_every:
        Appends between ``os.fsync`` calls. ``1`` (the default) syncs
        every record — full power-loss durability; larger values bound
        the loss window to that many events while keeping kill-crash
        durability (records are always flushed to the OS).
    floor:
        Called once, when the log is first opened, for the LSN that
        numbering must continue past even if the log lost it — the
        :class:`~repro.durable.manager.DurabilityManager` passes the
        LSN its snapshot covers. ``None`` numbers from the log alone.
    """

    def __init__(
        self,
        path,
        fsync_every: int = 1,
        *,
        floor: Optional[Callable[[], int]] = None,
    ) -> None:
        self._log = AppendLog(path, "WAL path")
        self.path = self._log.path
        if fsync_every < 1:
            raise ConfigurationError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.fsync_every = fsync_every
        self.records_written = 0
        self.fsyncs = 0
        self.corrupt_lines = 0
        self._since_fsync = 0
        self._floor = floor
        self._next_lsn: Optional[int] = None  # lazily seeded from the file

    # -- write path ----------------------------------------------------

    def _ensure_open(self) -> None:
        """Seed the LSN counter and repair the log file, exactly once.

        A torn trailing line (previous process died mid-append) or a
        garbled suffix is **truncated away** before the first append:
        replay is strict — it stops at the first corruption — so new
        records written *behind* garbage would be durable yet
        invisible. Truncation is safe because ``append`` acknowledges a
        record only after its full line is written; anything replay
        distrusts was never acknowledged to a client.

        Numbering continues past the larger of the last intact LSN and
        the floor. When the floor (the snapshot) is ahead, every intact
        record is one it already covers, and they are dropped too: a
        record numbered past the floor must follow no gap, or strict
        replay would stop before reaching it.
        """
        if self._next_lsn is not None:
            return
        records = self.replay(0)
        last = records[-1][0] if records else 0
        floor = self._floor() if self._floor is not None else 0
        if last < floor:
            if records or self.corrupt_lines > 0:
                self._publish([])
            last = floor
        elif self.corrupt_lines > 0:
            self._publish(records)
        self._next_lsn = last + 1

    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable record (0 when the log is empty)."""
        self._ensure_open()
        assert self._next_lsn is not None
        return self._next_lsn - 1

    def append(self, event: Dict[str, Any]) -> int:
        """Durably append one event payload; returns its LSN.

        The full line is serialised before the file is touched and
        written with one ``write`` call, so a crash leaves at worst one
        torn trailing line — truncated by the next process's first
        append (see :meth:`_ensure_open`) and skipped by replay.
        """
        lsn = self.last_lsn + 1
        due = self._since_fsync + 1 >= self.fsync_every
        self._log.append(_line(lsn, event), fsync=due)
        if due:
            self.fsyncs += 1
            self._since_fsync = 0
        else:
            self._since_fsync += 1
        self.records_written += 1
        self._next_lsn = lsn + 1
        return lsn

    def sync(self) -> None:
        """Force an ``fsync`` of any records the batch policy deferred."""
        if self._since_fsync == 0 or not self.path.exists():
            return
        self._log.sync()
        self.fsyncs += 1
        self._since_fsync = 0

    def close(self) -> None:
        """Release the file handle (without syncing deferred records);
        the next append reopens it."""
        self._log.close()

    def _publish(self, records: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Atomically rewrite the log to exactly *records*; the kept
        handle points at the replaced file, so it is closed too."""
        publish(
            self.path,
            "".join(_line(lsn, event) + "\n" for lsn, event in records),
        )
        self._log.close()
        self._since_fsync = 0

    # -- read path -----------------------------------------------------

    def replay(self, after_lsn: int) -> List[Tuple[int, Dict[str, Any]]]:
        """Intact records with LSN strictly greater than *after_lsn*.

        Replay stops at the first torn, garbled, or out-of-sequence
        line (counted in :attr:`corrupt_lines`, never raised): records
        past a corruption have no trustworthy ordering, and trusting
        them could apply events out of order — worse than losing the
        tail, which clients simply retry.
        """
        self.corrupt_lines = 0
        records: List[Tuple[int, Dict[str, Any]]] = []
        expected: Optional[int] = None
        for record in self._log.records(_parse):
            if record is None or (expected is not None and record[0] != expected):
                self.corrupt_lines += 1
                break
            expected = record[0] + 1
            if record[0] > after_lsn:
                records.append(record)
        return records

    # -- maintenance ---------------------------------------------------

    def compact(self, up_to_lsn: int) -> int:
        """Atomically drop records with LSN <= *up_to_lsn*; returns the
        number kept.

        The newest record is always retained even when the snapshot
        covers it: it anchors the LSN sequence, so a process reopening a
        fully-compacted log continues numbering instead of colliding
        with history.
        """
        last = self.last_lsn  # seeds the counter (and repairs) first
        intact = self.replay(0)
        survivors = [(lsn, ev) for lsn, ev in intact if lsn > up_to_lsn]
        if not survivors and intact:
            survivors = [intact[-1]]
        self._publish(survivors)
        self._next_lsn = last + 1  # LSNs keep counting across compactions
        return len(survivors)

    def __len__(self) -> int:
        """Number of intact records currently in the log file."""
        return len(self.replay(0))

    def __repr__(self) -> str:
        return f"EventWAL({str(self.path)!r})"
