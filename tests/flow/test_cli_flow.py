"""The flow half of the lint CLI: exit codes, selection, exports, baseline.

Every lint run includes the flow passes. Each test builds a miniature
``src/repro`` tree in a temp directory and drives
:func:`repro.lint.cli.main` exactly as CI does.
"""

import json

from repro.lint.cli import main as lint_main

#: A helper outside the sim-core reading the wall clock, plus a sim-core
#: caller — the canonical planted RPR601 chain.
TAINTED_TREE = {
    "src/repro/io/timeutil.py": (
        '"""Helper outside the core."""\n'
        "import time\n"
        "def stamp():\n"
        '    """Reads the wall clock."""\n'
        "    return time.time()\n"
    ),
    "src/repro/perf/model.py": (
        '"""Sim-core caller."""\n'
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Leaks wall-clock through the helper."""\n'
        "    return stamp()\n"
    ),
}

CLEAN_TREE = {
    "src/repro/perf/model.py": (
        '"""Sim-core module, self-contained."""\n'
        "def simulate(steps):\n"
        '    """Pure arithmetic."""\n'
        "    return steps * 2\n"
    ),
}


def _write_tree(tmp_path, tree):
    for rel, source in tree.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def test_flow_findings_exit_one(tmp_path, monkeypatch, capsys):
    _write_tree(tmp_path, TAINTED_TREE)
    monkeypatch.chdir(tmp_path)
    rc = lint_main(["src", "--select", "RPR601"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR601" in out
    assert "flow:" in out  # the text-mode summary line


def test_clean_tree_exits_zero_with_flow_summary(
    tmp_path, monkeypatch, capsys
):
    _write_tree(tmp_path, CLEAN_TREE)
    monkeypatch.chdir(tmp_path)
    rc = lint_main(["src"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flow: 1 modules" in out


def test_select_unknown_code_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    _write_tree(tmp_path, CLEAN_TREE)
    monkeypatch.chdir(tmp_path)
    rc = lint_main(["src", "--select", "RPR999"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "RPR999" in out


def test_list_rules_includes_the_flow_family(capsys):
    rc = lint_main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("RPR601", "RPR602", "RPR603", "RPR604"):
        assert code in out
    assert "flow]" in out


def test_callgraph_exports_imply_flow(tmp_path, monkeypatch, capsys):
    _write_tree(tmp_path, TAINTED_TREE)
    monkeypatch.chdir(tmp_path)
    json_out = tmp_path / "callgraph.json"
    dot_out = tmp_path / "callgraph.dot"
    # The exports write the run's own call graph; the planted finding
    # is reported in the same run (exit 1).
    rc = lint_main(
        [
            "src",
            "--select",
            "RPR601",
            "--callgraph-out",
            str(json_out),
            "--callgraph-dot",
            str(dot_out),
        ]
    )
    capsys.readouterr()
    assert rc == 1
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    edges = {
        (e["caller"], e["callee"]) for e in payload["edges"]
    }
    assert (
        "repro.perf.model.simulate",
        "repro.io.timeutil.stamp",
    ) in edges
    dot = dot_out.read_text(encoding="utf-8")
    assert dot.startswith("digraph callgraph")
    assert "repro.perf.model.simulate" in dot


def test_update_baseline_refuses_flow_determinism_findings(
    tmp_path, monkeypatch, capsys
):
    _write_tree(tmp_path, TAINTED_TREE)
    monkeypatch.chdir(tmp_path)
    rc = lint_main(
        ["src", "--select", "RPR601", "--update-baseline"]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "RPR601" in out
    assert not (tmp_path / "lint-baseline.json").exists()


def test_baseline_filter_passes_flow_findings_through(
    tmp_path, monkeypatch, capsys
):
    # An empty committed baseline must NOT absorb a fresh flow finding.
    _write_tree(tmp_path, TAINTED_TREE)
    (tmp_path / "lint-baseline.json").write_text(
        json.dumps({"version": 1, "entries": []}) + "\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    rc = lint_main(
        ["src", "--select", "RPR601", "--baseline"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR601" in out
