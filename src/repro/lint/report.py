"""Text and JSON reporters for lint results.

The text reporter is for humans and CI logs: one ``path:line:col: CODE
message`` line per violation, the flow analysis statistics, and a last
``OK:``/``FAIL:`` verdict line with a per-code tally and the baseline
accounting (how many known violations were skipped). The JSON reporter
is for tooling: a versioned document with the same information in
machine shape, written to stdout so it can be piped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.engine import LintResult
from repro.lint.violation import Violation

__all__ = ["REPORT_VERSION", "render_text", "render_json"]

REPORT_VERSION = 1


def _summary(
    result: LintResult, baselined: Sequence[Violation]
) -> Dict[str, Any]:
    return {
        "files_scanned": result.files_scanned,
        "violations": len(result.violations),
        "baselined": len(baselined),
        "by_code": {code: count for code, count in result.by_code()},
        "flow": dict(result.flow.stats),
    }


def render_text(result: LintResult, baselined: Sequence[Violation]) -> str:
    """Human/CI report: violations, flow stats, then the verdict line."""
    lines: List[str] = [v.format() for v in result.violations]
    if lines:
        lines.append("")
    stats = result.flow.stats
    lines.append(
        f"flow: {stats['modules']} modules, {stats['functions']} functions, "
        f"{stats['call_edges']} call edges, "
        f"{stats['unresolved_calls']} unresolved calls"
    )
    tally = ", ".join(f"{code}={count}" for code, count in result.by_code())
    status = "FAIL" if result.violations else "OK"
    lines.append(
        f"{status}: {len(result.violations)} violation(s) in "
        f"{result.files_scanned} file(s)"
        + (f" [{tally}]" if tally else "")
        + (f"; {len(baselined)} baselined" if baselined else "")
    )
    return "\n".join(lines)


def render_json(result: LintResult, baselined: Sequence[Violation]) -> str:
    """Machine report: versioned JSON document (stable key order)."""
    payload = {
        "version": REPORT_VERSION,
        "summary": _summary(result, baselined),
        "violations": [v.to_dict() for v in result.violations],
        "baselined": [v.to_dict() for v in baselined],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
