#!/usr/bin/env python
"""CI and pre-commit gate for the invariant linter (docs/static-analysis.md).

This is ``repro-cli lint --baseline`` run from the repository root: the
per-file rules and the whole-program flow passes over ``src``,
``tests``, ``scripts``, ``benchmarks`` and ``examples`` (or over the
files given, as pre-commit passes them), filtered through the committed
baseline. The report ends with the ``OK:``/``FAIL:`` verdict line of
the shared :mod:`_ci_util` protocol, and every ``repro-cli lint``
option passes through (``--format json``, ``--callgraph-out FILE``).

Run it as ``python scripts/run_lint.py [files...] [options]``; file
arguments are relative to the repository root.
"""

from __future__ import annotations

import os
import sys

from _ci_util import ensure_repo_on_path, gate_main, repo_root

ensure_repo_on_path()

from repro.lint.cli import main as lint_main  # noqa: E402


def main() -> int:
    """Lint from the repository root with the committed baseline."""
    os.chdir(repo_root())
    return lint_main(["--baseline", *sys.argv[1:]])


if __name__ == "__main__":
    gate_main(main)
