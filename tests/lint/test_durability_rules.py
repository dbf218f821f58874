"""Durability rules: RPR603 at depth 0 (os.replace), RPR2xx except hygiene."""

from tests.lint.conftest import codes_of

from repro.lint import lint_source


def test_replace_fixture_flags_all_three_shapes(lint_fixture):
    violations = lint_fixture("dur_replace_bad.py", module=None)
    # One in each function: missing, too-late, and nested-scope fsync.
    assert [(v.code, v.line) for v in violations] == [
        ("RPR603", 10), ("RPR603", 15), ("RPR603", 24),
    ]


def test_replace_negative_fixture_is_clean(lint_fixture):
    assert lint_fixture("dur_replace_ok.py", module=None) == []


def test_module_level_replace_outside_src_fires():
    # A script is no package, yet os.replace is checked in every file,
    # at module level too.
    source = (
        '"""Script publishing at import."""\n'
        "import os\n"
        'os.replace("out.tmp", "out.json")\n'
    )
    flagged = lint_source("scripts/publish.py", source)
    assert [(v.code, v.line) for v in flagged] == [("RPR603", 3)]


def test_except_fixture_flags_bare_and_swallowed(lint_fixture):
    violations = lint_fixture("dur_except_bad.py", module=None)
    assert codes_of(violations) == ["RPR202", "RPR203", "RPR203"]


def test_except_negative_fixture_is_clean(lint_fixture):
    assert lint_fixture("dur_except_ok.py", module=None) == []


def test_sink_isolation_modules_are_allowlisted():
    source = (
        '"""Doc."""\n'
        "def drop(sink, event):\n"
        '    """Sink isolation swallows by design."""\n'
        "    try:\n"
        "        sink(event)\n"
        "    except Exception:\n"
        "        return None\n"
    )
    flagged = lint_source("events.py", source, module="repro.jobs._fx")
    assert codes_of(flagged) == ["RPR203"]
    allowed = lint_source("events.py", source, module="repro.jobs.events")
    assert allowed == []
