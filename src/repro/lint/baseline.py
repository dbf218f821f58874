"""Committed baseline of grandfathered violations.

A baseline lets the linter gate *new* violations while known old ones
are paid down incrementally — the standard ratchet. Entries are keyed by
``(path, code, stripped-source-line)`` with a count, **not** by line
number, so edits elsewhere in a file do not churn the baseline; moving
or duplicating the offending construct does.

Policy, enforced here rather than by convention for every front end:
**RPR1xx and RPR6xx findings are never baselined.** RPR104 and RPR601
guard the simulation core, which must be fully clean — a wall-clock or
unseeded-RNG leak silently invalidates every regenerated table, so
"we'll fix it later" is not an available state; the other flow passes
(blocking coroutines, unsynced publishes, await races) guard the
daemon's recovery truth the same way.
:meth:`Baseline.from_violations` raises on any such entry, and
:meth:`Baseline.split` always reports them as new.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import ConfigurationError
from repro.lint.violation import Violation

__all__ = ["BASELINE_VERSION", "DEFAULT_BASELINE_NAME", "Baseline"]

BASELINE_VERSION = 1

#: Conventional baseline filename at the repository root.
DEFAULT_BASELINE_NAME = "lint-baseline.json"

#: Code prefixes that may never be grandfathered.
_UNBASELINABLE_PREFIXES: Tuple[str, ...] = ("RPR1", "RPR6")

_GroupKey = Tuple[str, str, str]  # (path, code, fingerprint source line)


def _key(violation: Violation) -> _GroupKey:
    return (violation.path, violation.code, violation.source)


class Baseline:
    """A multiset of grandfathered violation fingerprints."""

    def __init__(self, counts: Dict[_GroupKey, int]) -> None:
        self.counts: Dict[_GroupKey, int] = dict(counts)

    # -- construction ------------------------------------------------

    @classmethod
    def empty(cls) -> "Baseline":
        """A baseline that grandfathers nothing."""
        return cls({})

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "Baseline":
        """Build a baseline grandfathering exactly *violations*.

        Raises :class:`~repro.errors.ConfigurationError` if any has an
        unbaselinable (RPR1xx/RPR6xx) code — fix or ``noqa`` those with
        an explanatory comment instead.
        """
        counts: Counter = Counter()
        forbidden: List[Violation] = []
        for violation in violations:
            if violation.code.startswith(_UNBASELINABLE_PREFIXES):
                forbidden.append(violation)
            counts[_key(violation)] += 1
        if forbidden:
            listing = "\n  ".join(v.format() for v in sorted(forbidden))
            raise ConfigurationError(
                "RPR1xx/RPR6xx violations cannot be baselined — fix them "
                "or add a '# repro: noqa[CODE]' with justification:"
                f"\n  {listing}"
            )
        return cls(dict(counts))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        file_path = Path(path)
        try:
            payload = json.loads(file_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return cls.empty()
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"unreadable lint baseline {file_path}: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("version") != BASELINE_VERSION
            or not isinstance(payload.get("entries"), list)
        ):
            raise ConfigurationError(
                f"lint baseline {file_path} has an unrecognised schema"
            )
        counts: Dict[_GroupKey, int] = {}
        for entry in payload["entries"]:
            try:
                key = (str(entry["path"]), str(entry["code"]),
                       str(entry["source"]))
                count = int(entry.get("count", 1))
            except (TypeError, KeyError) as exc:
                raise ConfigurationError(
                    f"malformed entry in lint baseline {file_path}: {entry!r}"
                ) from exc
            counts[key] = counts.get(key, 0) + count
        return cls(counts)

    # -- persistence -------------------------------------------------

    def dump(self, path: Union[str, Path]) -> None:
        """Write the baseline as deterministic, diff-friendly JSON."""
        entries = [
            {"path": key[0], "code": key[1], "source": key[2], "count": count}
            for key, count in sorted(self.counts.items())
        ]
        payload = {"version": BASELINE_VERSION, "entries": entries}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- filtering ---------------------------------------------------

    def split(
        self, violations: Iterable[Violation]
    ) -> Tuple[List[Violation], List[Violation]]:
        """Partition *violations* into ``(new, baselined)``.

        Within one fingerprint group the earliest occurrences (by line)
        consume the baseline budget; any surplus beyond the recorded
        count is new, and so is every unbaselinable finding, whatever a
        hand-edited file says. Deterministic: the same input always
        partitions the same way.
        """
        budget = dict(self.counts)
        new: List[Violation] = []
        old: List[Violation] = []
        for violation in sorted(violations):
            key = _key(violation)
            remaining = budget.get(key, 0)
            if remaining > 0 and not violation.code.startswith(
                _UNBASELINABLE_PREFIXES
            ):
                budget[key] = remaining - 1
                old.append(violation)
            else:
                new.append(violation)
        return new, old

    def codes(self) -> Tuple[str, ...]:
        """Sorted distinct rule codes present in the baseline."""
        return tuple(sorted({code for (_, code, _) in self.counts}))

    def __len__(self) -> int:
        return sum(self.counts.values())
