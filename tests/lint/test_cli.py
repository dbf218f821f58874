"""CLI acceptance: exit codes, JSON report, baseline flags."""

import json

from tests.lint.conftest import FIXTURES

from repro.lint.cli import main


def test_exit_one_on_seeded_violation_fixture(capsys):
    rc = main([str(FIXTURES / "dur_except_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR202" in out
    assert "FAIL" in out


def _plant_in_sim_core(tmp_path, fixture_name):
    """Copy a fixture into a src-layout path so package-scoped rules fire."""
    target = tmp_path / "src" / "repro" / "core" / "planted.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        (FIXTURES / fixture_name).read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    return target


def test_determinism_rules_fire_via_cli_on_src_layout(tmp_path, capsys):
    planted = _plant_in_sim_core(tmp_path, "det_clock_bad.py")
    rc = main([str(planted)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR601" in out


def test_exit_zero_on_src_repro_with_committed_baseline(capsys, repo_root):
    rc = main([
        "--baseline",
        "--baseline-file", str(repo_root / "lint-baseline.json"),
        str(repo_root / "src" / "repro"),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "OK" in out


def test_json_report_shape(capsys):
    rc = main(["--format", "json", str(FIXTURES / "dur_except_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == 1
    codes = sorted(v["code"] for v in payload["violations"])
    assert codes == ["RPR202", "RPR203", "RPR203"]
    assert payload["summary"]["files_scanned"] == 1


def test_select_restricts_rules(capsys):
    rc = main([
        "--select", "RPR202", str(FIXTURES / "dur_except_bad.py"),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RPR203" not in out


def test_select_rejects_unknown_code(capsys):
    rc = main(["--select", "RPR999", str(FIXTURES / "dur_except_bad.py")])
    assert rc == 2


def test_update_baseline_refuses_determinism_codes(tmp_path, capsys):
    planted = _plant_in_sim_core(tmp_path, "det_clock_bad.py")
    target = tmp_path / "base.json"
    rc = main([
        "--update-baseline", "--baseline-file", str(target), str(planted),
    ])
    assert rc == 2  # configuration error, never success
    assert not target.exists()


def test_update_baseline_then_gate_is_clean(tmp_path, capsys):
    target = tmp_path / "base.json"
    fixture = str(FIXTURES / "dur_except_bad.py")
    assert main(["--update-baseline", "--baseline-file", str(target),
                 fixture]) == 0
    capsys.readouterr()
    rc = main(["--baseline", "--baseline-file", str(target), fixture])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "baselined" in out


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR104", "RPR202", "RPR301", "RPR401", "RPR601"):
        assert code in out
    # One rule per invariant: the per-file twins of RPR601-RPR603 are gone.
    for code in ("RPR101", "RPR102", "RPR103", "RPR201", "RPR501",
                 "RPR502"):
        assert code not in out
