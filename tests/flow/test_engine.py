"""Engine-level contracts: determinism, parse-once, and the self-check.

The flow engine's promises are run-shaped, not rule-shaped: two runs
over the same tree produce byte-identical artefacts, a lint run (per-
file rules plus flow passes) parses each file exactly once, and the
repository's own source tree is clean under its own analysis.
"""

import json

from tests.flow.conftest import REPO_ROOT, make_program

from repro.flow import analyze, load_program, run_flow
from repro.flow.export import callgraph_json
from repro.lint.cli import main as lint_main


def _load_src():
    return load_program([REPO_ROOT / "src"], root=REPO_ROOT)


def test_two_runs_over_src_are_byte_identical():
    first = analyze(_load_src())
    second = analyze(_load_src())
    assert callgraph_json(first) == callgraph_json(second)
    first_result = run_flow(_load_src())
    second_result = run_flow(_load_src())
    assert [
        (v.path, v.line, v.code, v.message)
        for v in first_result.violations
    ] == [
        (v.path, v.line, v.code, v.message)
        for v in second_result.violations
    ]
    assert first_result.stats == second_result.stats


def test_repo_source_tree_is_clean_under_its_own_analysis():
    result = run_flow(_load_src())
    assert result.ok, [
        f"{v.path}:{v.line} {v.code} {v.message}"
        for v in result.violations
    ]
    # Sanity floor: the analysis actually saw the tree.
    assert result.stats["modules"] > 100
    assert result.stats["functions"] > 500
    assert result.stats["call_edges"] > 500


def test_stats_reflect_the_analyzed_program():
    program = make_program(
        (
            "pkg.a",
            '"""Doc."""\n'
            "def one():\n"
            '    """Calls two."""\n'
            "    return two()\n"
            "def two():\n"
            '    """Leaf."""\n'
            "    return 1\n",
        ),
        (
            "pkg.b",
            '"""Doc."""\n'
            "import json\n"
            "def three(payload):\n"
            '    """External + dynamic."""\n'
            "    json.dumps(payload)\n"
            "    return payload.render()\n",
        ),
    )
    result = run_flow(program)
    assert result.stats["modules"] == 2
    # Three functions plus one import-time scope per module.
    assert result.stats["functions"] == 5
    assert result.stats["call_edges"] == 1
    assert result.stats["external_calls"] == 1
    assert result.stats["unresolved_calls"] == 1
    assert result.stats["findings"] == 0


def test_combined_lint_flow_parses_each_file_exactly_once(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "src" / "mini").mkdir(parents=True)
    (tmp_path / "src" / "mini" / "__init__.py").write_text(
        '"""Mini package."""\n', encoding="utf-8"
    )
    (tmp_path / "src" / "mini" / "mod.py").write_text(
        '"""Mini module."""\n'
        "def f():\n"
        '    """Leaf."""\n'
        "    return 1\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)

    from repro.lint import engine as lint_engine

    parsed = []
    original = lint_engine.LoadedModule.parse.__func__

    def counting(cls, path, source, module=None):
        parsed.append(str(path))
        return original(cls, path, source, module=module)

    monkeypatch.setattr(
        lint_engine.LoadedModule, "parse", classmethod(counting)
    )
    rc = lint_main(["src", "--format", "json"])
    capsys.readouterr()
    assert rc == 0
    assert len(parsed) == 2
    assert len(set(parsed)) == 2


def test_flow_json_report_is_stable_across_runs(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc = lint_main(
            [
                str(REPO_ROOT / "src" / "repro" / "flow"),
                "--format",
                "json",
                "--callgraph-out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text(encoding="utf-8"))
    assert payload["version"] == 1
