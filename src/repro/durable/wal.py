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
  already covers, atomically (write-tmp/fsync/rename), so the log's
  length is bounded by the snapshot interval rather than by uptime.

Durability policy: every append is a single ``write`` of a full line,
flushed to the OS before :meth:`EventWAL.append` returns — a ``kill
-9`` therefore never loses an appended record. ``fsync`` (power-loss
durability) runs every ``fsync_every`` appends (default 1: every
record, the :class:`repro.jobs.journal.RunJournal` discipline); raising
it trades a bounded power-loss window for throughput, and the trade is
recorded in the ``durable_wal_fsyncs_total`` metric.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.jobs.keys import canonical_json

__all__ = ["WAL_SCHEMA_VERSION", "EventWAL"]

#: Version of the WAL record schema; bump to orphan old logs.
WAL_SCHEMA_VERSION = 1


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
    """

    def __init__(self, path, fsync_every: int = 1) -> None:
        self.path = Path(path)
        if self.path.exists() and self.path.is_dir():
            raise ConfigurationError(f"WAL path {self.path} is a directory")
        if fsync_every < 1:
            raise ConfigurationError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.fsync_every = fsync_every
        self.records_written = 0
        self.fsyncs = 0
        self.corrupt_lines = 0
        self._since_fsync = 0
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
        """
        if self._next_lsn is not None:
            return
        records = self.replay(0)
        if self.corrupt_lines > 0:
            self._publish(records)
        self._next_lsn = (records[-1][0] + 1) if records else 1

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

        Every call also creates the log's directory if needed and opens
        and closes the log: close to half the CPU time of one fsynced
        append on ext4.
        """
        lsn = self.last_lsn + 1
        line = (
            canonical_json(
                {"version": WAL_SCHEMA_VERSION, "lsn": lsn, "event": event}
            )
            + "\n"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="ascii") as handle:
            handle.write(line)
            handle.flush()
            self._since_fsync += 1
            if self._since_fsync >= self.fsync_every:
                os.fsync(handle.fileno())
                self.fsyncs += 1
                self._since_fsync = 0
        self.records_written += 1
        self._next_lsn = lsn + 1
        return lsn

    def sync(self) -> None:
        """Force an ``fsync`` of any records the batch policy deferred."""
        if self._since_fsync == 0 or not self.path.exists():
            return
        with open(self.path, "a", encoding="ascii") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self.fsyncs += 1
        self._since_fsync = 0

    def _publish(self, records: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Atomically rewrite the log to exactly *records*.

        Write-tmp/fsync/``os.replace`` in the log's own directory — a
        crash mid-rewrite leaves either the old complete file or the
        new complete file, never a mixture.
        """
        text = "".join(
            canonical_json(
                {"version": WAL_SCHEMA_VERSION, "lsn": lsn, "event": event}
            )
            + "\n"
            for lsn, event in records
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".compact")
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
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
        try:
            text = self.path.read_text(encoding="ascii")
        except FileNotFoundError:
            return []
        except (OSError, UnicodeDecodeError):
            self.corrupt_lines += 1
            return []
        records: List[Tuple[int, Dict[str, Any]]] = []
        expected: Optional[int] = None
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["version"] != WAL_SCHEMA_VERSION:
                    raise ValueError("WAL schema mismatch")
                lsn = record["lsn"]
                event = record["event"]
                if not isinstance(lsn, int) or not isinstance(event, dict):
                    raise ValueError("malformed WAL record")
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1
                break
            if expected is not None and lsn != expected:
                self.corrupt_lines += 1
                break
            expected = lsn + 1
            if lsn > after_lsn:
                records.append((lsn, event))
        return records

    # -- maintenance ---------------------------------------------------

    def compact(self, up_to_lsn: int) -> int:
        """Drop records with LSN <= *up_to_lsn*; returns records kept.

        The survivors are rewritten to a temporary file in the same
        directory, fsynced, and published with ``os.replace`` — a crash
        mid-compaction leaves either the old complete log or the new
        complete log, never a mixture. The newest record is always
        retained even when the snapshot covers it: it anchors the LSN
        sequence, so a process reopening a fully-compacted log
        continues numbering instead of colliding with history.
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
