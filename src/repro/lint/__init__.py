"""repro.lint — AST-based invariant linter for this repository.

The reproduction's credibility rests on invariants that used to be
enforced only by convention; this package encodes them as a static-
analysis pass (the contract catalogue lives in
``docs/static-analysis.md``):

* **RPR104** — no randomised builtin ``hash()`` inside the simulation
  core packages.
* **RPR2xx exception hygiene** — no bare or silently swallowed broad
  excepts.
* **RPR3xx worker-safety** — nothing unpicklable handed to the spawn
  pool (lambdas, closures, local classes).
* **RPR4xx telemetry hygiene** — the single-guard ``current() is None``
  fast path is never bypassed; only entry points install contexts.
* **RPR6xx whole-program passes** (:mod:`repro.flow`), each the one
  rule for its invariant, from the offending call itself through any
  chain of calls — no wall-clock, unseeded RNG or OS entropy in the
  simulation core (RPR601), no blocking call on the daemon's event loop
  (RPR602), an fsync before every publishing rename (RPR603), no
  service state mutated across an ``await`` (RPR604).

Every run applies both families over one parse. Run it as ``repro-cli
lint`` or ``python scripts/run_lint.py`` (the same command with the
committed baseline, from the repository root). Suppress a waived
finding with ``# repro: noqa[CODE]`` (line) or ``# repro:
noqa-file[CODE]`` (file); grandfathered violations live in
``lint-baseline.json`` — except RPR1xx and RPR6xx findings, which can
never be baselined.
"""

from __future__ import annotations

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.context import SIM_CORE_PACKAGES, ModuleContext
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    LintResult,
    lint_paths,
    lint_source,
)
from repro.lint.registry import Rule, all_rules, get_rule, rule_codes
from repro.lint.violation import Violation

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "PARSE_ERROR_CODE",
    "SIM_CORE_PACKAGES",
    "Baseline",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "rule_codes",
]
