"""``scripts/run_lint.py``: the CI and pre-commit gate, run as CI runs it.

The gate lints the tree its ``scripts/`` directory sits in, so the tests
copy the script and its ``_ci_util`` helper into a temp tree holding one
planted finding: a ``time.sleep`` in a ``repro.service`` coroutine.
"""

import os
import shutil
import subprocess
import sys

import pytest
from tests.lint.conftest import REPO_ROOT

PLANTED = "src/repro/service/planted.py"

SOURCE = (
    '"""A coroutine that blocks the event loop."""\n'
    "import time\n"
    "async def tick():\n"
    '    """Sleeps on the loop."""\n'
    "    time.sleep(0.1)\n"
)


def _run(tree, *args):
    # The tree's src/ holds no repro package of its own: the linter is
    # imported from this checkout.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=tree, env=env,
        capture_output=True, text=True, timeout=120,
    )


def _findings(stdout):
    return [line for line in stdout.splitlines() if ": RPR" in line]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The temp tree, and the gate's run over it with no file arguments."""
    root = tmp_path_factory.mktemp("gate")
    (root / "scripts").mkdir()
    for name in ("run_lint.py", "_ci_util.py"):
        shutil.copy(REPO_ROOT / "scripts" / name, root / "scripts" / name)
    planted = root / PLANTED
    planted.parent.mkdir(parents=True)
    planted.write_text(SOURCE, encoding="utf-8")
    return root, _run(root, "scripts/run_lint.py")


def test_gate_fails_on_the_whole_tree(tree):
    _, whole = tree
    assert whole.returncode == 1, whole.stdout + whole.stderr
    last = whole.stdout.strip().splitlines()[-1]
    assert last.startswith("FAIL:") and "RPR602" in last, last
    [finding] = _findings(whole.stdout)
    assert finding.startswith(f"{PLANTED}:5:1: RPR602 "), finding


def test_gate_reports_the_same_finding_for_one_file(tree):
    root, whole = tree
    one = _run(root, "scripts/run_lint.py", PLANTED)
    assert one.returncode == 1, one.stdout + one.stderr
    assert one.stdout.strip().splitlines()[-1].startswith("FAIL:")
    assert _findings(one.stdout) == _findings(whole.stdout)


def test_repro_cli_lint_prints_the_same_findings(tree):
    root, whole = tree
    cli = _run(root, "-m", "repro.cli", "lint")
    assert cli.returncode == 1, cli.stdout + cli.stderr
    assert _findings(cli.stdout) == _findings(whole.stdout)
