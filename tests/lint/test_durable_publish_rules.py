"""RPR603 at depth 0: durable rename-family publishes need an fsync first."""

from pathlib import Path

from repro.lint import lint_paths, lint_source

from tests.lint.conftest import codes_of

#: Pretend modules placing fixtures inside the durable-state packages.
DURABLE_MODULE = "repro.durable._lint_fixture"
SERVICE_MODULE = "repro.service._lint_fixture"


def test_bad_fixture_flags_every_rename(lint_fixture):
    violations = lint_fixture("dur_publish_bad.py", module=DURABLE_MODULE)
    assert [(v.code, v.line) for v in violations] == [
        ("RPR603", line) for line in (11, 16, 22, 27, 36)
    ]


def test_rule_also_covers_the_service_package(lint_fixture):
    violations = lint_fixture("dur_publish_bad.py", module=SERVICE_MODULE)
    assert codes_of(violations) == ["RPR603"] * 5


def test_fsynced_and_lookalike_calls_are_clean(lint_fixture):
    assert lint_fixture("dur_publish_ok.py", module=DURABLE_MODULE) == []


def test_rule_is_scoped_to_the_durable_packages(lint_fixture):
    # The same renames are legal elsewhere — RPR603 still audits the
    # os.replace spelling globally, but the heuristic method-form match
    # only pays for itself where scheduler state is persisted.
    assert lint_fixture("dur_publish_bad.py", module="repro.jobs._fx") == []
    assert lint_fixture("dur_publish_bad.py", module="repro.perf._fx") == []


def test_os_replace_is_left_to_rpr201():
    # os.replace and the durable-only spellings are one rule now, so an
    # unsynced os.replace in the durable scope is reported exactly once
    # and one noqa[RPR603] waives it.
    source = (
        '"""Doc."""\n'
        "import os\n"
        "def publish(tmp, final):\n"
        '    """Unfsynced os.replace."""\n'
        "    os.replace(tmp, final)\n"
    )
    violations = lint_source("fx.py", source, module=DURABLE_MODULE)
    assert [(v.code, v.line) for v in violations] == [("RPR603", 5)]


def test_shipped_durable_state_packages_are_clean():
    # The durability layer must satisfy its own publish discipline.
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    result = lint_paths([src / "durable", src / "service"])
    assert [v for v in result.violations if v.code == "RPR603"] == []
