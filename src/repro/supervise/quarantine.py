"""Persisted poison-spec quarantine: a durable denylist of spec keys.

A *poison* spec fails terminally every time it runs — a pathological
parameter combination that crashes the simulator, hangs a worker, or
blows the memory budget deterministically. The circuit breaker stops it
within one process, but a resumed campaign (new process, same journal)
would innocently resubmit it and crash the pool every wave all over
again. The quarantine is the breaker's durable memory: when a key's
circuit trips, the orchestrator writes it here, and every later run —
including resume-after-crash — consults the file *before* submitting.

The file is a :class:`repro.fileio.AppendLog`: one JSON line per key,
fsynced before the caller proceeds, with a torn tail isolated before
each append::

    {"version": 1, "key": "<sha256>", "reason": "...", "failures": N}\n

Loading skips torn and garbled lines (counted in
:attr:`PoisonQuarantine.corrupt_lines`, never raised), duplicate keys
are benign (last record wins), and a quarantined spec surfaces as a
structured :class:`~repro.jobs.failures.JobFailure` with
``kind='quarantined'`` — flowing into ``SweepResult.failures`` exactly
like signature degradation events, so excluded runs are *named* in the
final report rather than silently rerun or silently dropped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.fileio import AppendLog

__all__ = ["QUARANTINE_SCHEMA_VERSION", "PoisonQuarantine"]

#: Version of the quarantine line schema; bump to orphan old files.
QUARANTINE_SCHEMA_VERSION = 1


def _parse(record: Any) -> Dict[str, Any]:
    """One quarantine line as its record dict; raises on a bad record."""
    if record["version"] != QUARANTINE_SCHEMA_VERSION:
        raise ValueError("quarantine schema mismatch")
    key = record["key"]
    if not isinstance(key, str) or not key:
        raise ValueError("malformed quarantine record")
    return record


class PoisonQuarantine:
    """Durable key → reason denylist backing the circuit breaker.

    Parameters
    ----------
    path:
        Quarantine file; created (with parents) on the first add. An
        existing directory at this path is rejected immediately.
    """

    def __init__(self, path) -> None:
        self._log = AppendLog(path, "quarantine path")
        self.path = self._log.path
        self.corrupt_lines = 0
        self._records: Dict[str, Dict[str, Any]] = self._load()

    def _load(self) -> Dict[str, Dict[str, Any]]:
        records: Dict[str, Dict[str, Any]] = {}
        self.corrupt_lines = 0
        for record in self._log.records(_parse):
            if record is None:
                self.corrupt_lines += 1
            else:
                records[record["key"]] = record
        return records

    def reload(self) -> None:
        """Re-read the file (another process may have quarantined keys)."""
        self._records = self._load()

    def add(self, key: str, reason: str, failures: int = 0) -> None:
        """Durably quarantine *key* (idempotent; fsynced before return)."""
        record = {
            "version": QUARANTINE_SCHEMA_VERSION,
            "key": key,
            "reason": str(reason),
            "failures": int(failures),
        }
        self._records[key] = record
        # Canonical one-line JSON (sorted keys, no whitespace) — the same
        # shape as repro.jobs.keys.canonical_json, inlined so the
        # supervise package never imports repro.jobs (which imports it).
        self._log.append(
            json.dumps(
                record, sort_keys=True, separators=(",", ":"),
                allow_nan=False,
            )
        )

    def close(self) -> None:
        """Release the file handle; the next add reopens it."""
        self._log.close()

    def reason(self, key: str) -> Optional[str]:
        """Why *key* is quarantined (``None`` if it is not)."""
        record = self._records.get(key)
        return None if record is None else record.get("reason", "")

    def keys(self):
        """The quarantined keys (sorted)."""
        return sorted(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"PoisonQuarantine({str(self.path)!r}, {len(self._records)} key(s))"
        )
