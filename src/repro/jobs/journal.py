"""Write-ahead journal of completed run specs (checkpoint/resume).

An hours-long sweep interrupted at 90% should re-execute 10%, not 100%.
The journal is the crash-safe record that makes that possible: one
append-only file where every *completed* spec is recorded as a single
JSON line *before* its outcome is reported to the caller::

    {"version": 1, "key": "<sha256>", "outcome": {...}}\n

Recovery rules (what makes it a WAL rather than a log):

* every record is one full line, fsynced before
  :meth:`RunJournal.record` returns — a completed spec survives a power
  loss (the line framing and torn-tail isolation are
  :class:`repro.fileio.AppendLog`'s);
* :meth:`RunJournal.load` tolerates a torn tail: a final line without a
  newline terminator, or any line that does not parse as a valid record,
  is skipped (and counted in :attr:`RunJournal.corrupt_lines`) — an
  interrupted append never poisons the journal;
* duplicate keys are benign (last record wins) — re-running a batch that
  partially journaled is idempotent.

The journal is *per sweep run* and self-contained (outcomes inline), so
resuming needs neither the result cache nor re-execution of finished
specs; the orchestrator consults it before the cache.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.fileio import AppendLog
from repro.jobs.keys import canonical_json

__all__ = ["JOURNAL_SCHEMA_VERSION", "RunJournal"]

#: Version of the journal line schema; bump to orphan old journals.
JOURNAL_SCHEMA_VERSION = 1


def _parse(record: Any) -> Tuple[str, Dict[str, Any]]:
    """``(key, outcome)`` of one journal line; raises on a bad record."""
    if record["version"] != JOURNAL_SCHEMA_VERSION:
        raise ValueError("journal schema mismatch")
    key = record["key"]
    outcome = record["outcome"]
    if not isinstance(key, str) or not isinstance(outcome, dict):
        raise ValueError("malformed journal record")
    return key, outcome


class RunJournal:
    """Append-only record of completed spec keys and their outcomes.

    Parameters
    ----------
    path:
        Journal file; created (with parents) on the first record. An
        existing directory at this path is rejected immediately.
    """

    def __init__(self, path) -> None:
        self._log = AppendLog(path, "journal path")
        self.path = self._log.path
        self.corrupt_lines = 0
        self.records_written = 0

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the journal: key -> outcome for every intact record.

        Torn or garbled lines (interrupted appends, disk corruption) are
        skipped and counted — never raised — so a crashed sweep's journal
        always loads.
        """
        replayed: Dict[str, Dict[str, Any]] = {}
        self.corrupt_lines = 0
        for record in self._log.records(_parse):
            if record is None:
                self.corrupt_lines += 1
            else:
                replayed[record[0]] = record[1]
        return replayed

    def record(self, key: str, outcome: Dict[str, Any]) -> None:
        """Durably append one completed spec (single line, fsynced).

        The line is fully serialised before the file is touched, so a
        crash leaves at worst one torn *trailing* line, which :meth:`load`
        skips and the next record isolates.
        """
        self._log.append(
            canonical_json(
                {
                    "version": JOURNAL_SCHEMA_VERSION,
                    "key": key,
                    "outcome": outcome,
                }
            )
        )
        self.records_written += 1

    def close(self) -> None:
        """Release the journal's file handle; the next record reopens it."""
        self._log.close()

    def __len__(self) -> int:
        """Number of intact records currently in the journal file."""
        return len(self.load())

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"
