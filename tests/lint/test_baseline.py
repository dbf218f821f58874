"""Baseline ratchet: split semantics, RPR1xx refusal, round-trip."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import Baseline, Violation


def _v(code, line=3, path="src/repro/jobs/x.py", source="do()"):
    return Violation(
        path=path, line=line, col=0, code=code,
        message="m", source=source,
    )


def test_split_matches_on_fingerprint_not_line_number():
    base = Baseline.from_violations([_v("RPR202", line=10)])
    new, baselined = base.split([_v("RPR202", line=99)])
    assert new == []
    assert len(baselined) == 1


def test_split_counts_are_a_ratchet():
    base = Baseline.from_violations([_v("RPR202")])
    dup = [_v("RPR202", line=4), _v("RPR202", line=9)]
    new, baselined = base.split(dup)
    # One occurrence is grandfathered; the extra one is new debt.
    assert len(new) == 1
    assert len(baselined) == 1


def test_determinism_codes_can_never_be_baselined():
    with pytest.raises(ConfigurationError) as err:
        Baseline.from_violations([_v("RPR104")])
    assert "RPR104" in str(err.value)


def test_flow_codes_can_never_be_baselined():
    for code in ("RPR601", "RPR602", "RPR603", "RPR604"):
        with pytest.raises(ConfigurationError):
            Baseline.from_violations([_v(code)])
    # Nor does a hand-edited baseline absorb one.
    forged = Baseline({("src/repro/jobs/x.py", "RPR602", "do()"): 1})
    new, baselined = forged.split([_v("RPR602")])
    assert [v.code for v in new] == ["RPR602"]
    assert baselined == []


def test_round_trip_and_missing_file(tmp_path):
    path = tmp_path / "lint-baseline.json"
    assert len(Baseline.load(path)) == 0
    base = Baseline.from_violations([_v("RPR202"), _v("RPR301")])
    base.dump(path)
    reloaded = Baseline.load(path)
    assert reloaded.codes() == ("RPR202", "RPR301")
    assert len(reloaded) == 2


def test_dump_is_deterministic(tmp_path):
    violations = [_v("RPR301"), _v("RPR202"), _v("RPR203")]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    Baseline.from_violations(violations).dump(a)
    Baseline.from_violations(list(reversed(violations))).dump(b)
    assert a.read_text() == b.read_text()
