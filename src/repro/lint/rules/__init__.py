"""Rule modules — importing this package registers every rule.

The registry (:mod:`repro.lint.registry`) imports this package lazily
the first time rules are listed, so adding a rule file means adding it
to the import list below and nothing else.
"""

from __future__ import annotations

from repro.lint.rules import (
    determinism,
    durability,
    estimate,
    telemetry,
    worker_safety,
)

__all__ = [
    "determinism",
    "durability",
    "estimate",
    "telemetry",
    "worker_safety",
]
