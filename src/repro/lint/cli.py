"""Command-line front end: ``repro-cli lint`` and ``scripts/run_lint.py``.

``scripts/run_lint.py`` is ``repro-cli lint --baseline`` run from the
repository root, so the two entries share :func:`add_arguments` /
:func:`run` and the flag surface cannot drift. Every run applies the
per-file rules and the whole-program flow passes (RPR6xx) over one
parse. Exit codes follow the repo convention: ``0`` clean, ``1``
violations found, ``2`` configuration/usage error.

Baseline semantics:

* ``--baseline`` filters known violations through the committed
  baseline file (``lint-baseline.json`` by default) — CI mode.
* ``--update-baseline`` rewrites that file to grandfather everything
  currently found. RPR1xx and RPR6xx violations refuse to baseline
  (:mod:`repro.lint.baseline`): they must be fixed or ``noqa``-ed with
  justification, never grandfathered.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import AnyRule, LintResult, lint_paths
from repro.lint.registry import all_flow_rules, all_rules
from repro.lint.report import render_json, render_text
from repro.lint.violation import Violation

__all__ = ["DEFAULT_TREES", "add_arguments", "run", "main"]

#: Directories linted when no paths are given.
DEFAULT_TREES = ("src", "tests", "scripts", "benchmarks", "examples")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flag surface to *parser* (shared by entries)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: "
        + " ".join(DEFAULT_TREES) + ")",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="filter known violations through the committed baseline file",
    )
    parser.add_argument(
        "--baseline-file", metavar="FILE", default=DEFAULT_BASELINE_NAME,
        help=f"baseline file path (default: {DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file to grandfather current violations "
        "(refuses RPR1xx and RPR6xx: those must be fixed, not "
        "grandfathered)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--callgraph-out", metavar="FILE", default=None,
        help="write the run's call graph as versioned JSON",
    )
    parser.add_argument(
        "--callgraph-dot", metavar="FILE", default=None,
        help="write the run's call graph as Graphviz DOT",
    )


def _selected_rules(select: Optional[str]) -> List[AnyRule]:
    """Resolve ``--select`` against the one catalogue of both registries.

    Unknown codes are a usage error (exit 2). With no selection, every
    rule is active.
    """
    catalogue: List[AnyRule] = [*all_rules(), *all_flow_rules()]
    if select is None:
        return catalogue
    wanted = {code.strip() for code in select.split(",") if code.strip()}
    unknown = wanted - {rule.code for rule in catalogue}
    if unknown:
        raise ConfigurationError(
            f"unknown rule code(s) in --select: {sorted(unknown)}"
        )
    return [rule for rule in catalogue if rule.code in wanted]


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.name} [{rule.scope}]")
        lines.append(f"    {rule.summary}")
    for flow_rule in all_flow_rules():
        lines.append(
            f"{flow_rule.code}  {flow_rule.name} [{flow_rule.scope}, flow]"
        )
        lines.append(f"    {flow_rule.summary}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute one lint invocation from parsed *args*."""
    if args.list_rules:
        print(_list_rules())
        return 0
    paths: Sequence[str] = args.paths or [
        tree for tree in DEFAULT_TREES if Path(tree).exists()
    ]
    if not paths:
        print("error: no paths given and none of "
              f"{', '.join(DEFAULT_TREES)} here")
        return 2
    try:
        result = lint_paths(paths, rules=_selected_rules(args.select))
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    # Imported here: repro-cli loads this module for every subcommand.
    from repro.flow.export import callgraph_dot, callgraph_json

    analysis = result.flow.analysis
    if args.callgraph_out:
        Path(args.callgraph_out).write_text(
            callgraph_json(analysis), encoding="utf-8"
        )
    if args.callgraph_dot:
        Path(args.callgraph_dot).write_text(
            callgraph_dot(analysis), encoding="utf-8"
        )

    if args.update_baseline:
        try:
            baseline = Baseline.from_violations(result.violations)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
        baseline.dump(args.baseline_file)
        print(
            f"baseline: {len(baseline)} violation(s) grandfathered -> "
            f"{args.baseline_file}"
        )
        return 0

    baselined: List[Violation] = []
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline_file)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
        fresh, baselined = baseline.split(result.violations)
        result = LintResult(fresh, result.files_scanned, result.flow)

    if args.format == "json":
        print(render_json(result, baselined))
    else:
        print(render_text(result, baselined))
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter: determinism, durability, "
        "worker-safety, telemetry hygiene (docs/static-analysis.md)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    import sys

    sys.exit(main())
