"""Determinism in the simulation core: RPR601 at depth 0, and RPR104.

Clock reads, unseeded RNGs and OS entropy are RPR601's findings at the
offending call, wherever the core runs it: a function body, the module
body, or a class body.
"""

from repro.lint import lint_source


def test_clock_fixture_flags_every_read(lint_fixture):
    violations = lint_fixture("det_clock_bad.py")
    assert [(v.code, v.line) for v in violations] == [
        ("RPR601", line) for line in (16, 17, 18, 19, 20)
    ]
    # Each flagged line resolves a different import/alias shape.
    flagged = {v.source.split("(")[0].split("=")[-1].strip()
               for v in violations}
    assert flagged == {
        "clock.time", "clock.monotonic", "perf_counter",
        "datetime.now", "date.today",
    }


def test_clock_negative_fixture_is_clean(lint_fixture):
    assert lint_fixture("det_clock_ok.py") == []


def test_clock_rule_is_package_scoped(lint_fixture):
    """The same source is legal inside repro.jobs / repro.telemetry."""
    for pkg in ("repro.jobs._fixture", "repro.telemetry._fixture", None):
        assert lint_fixture("det_clock_bad.py", module=pkg) == []


def test_rng_fixture_flags_unseeded_and_global(lint_fixture):
    violations = lint_fixture("det_rng_bad.py")
    assert [(v.code, v.line) for v in violations] == [
        ("RPR601", line) for line in (10, 11, 12, 13, 14)
    ]


def test_rng_negative_fixture_is_clean(lint_fixture):
    assert lint_fixture("det_rng_ok.py") == []


def test_entropy_and_hash_fixture(lint_fixture):
    violations = lint_fixture("det_entropy_hash_bad.py")
    assert [(v.code, v.line) for v in violations] == [
        ("RPR601", 9), ("RPR601", 10), ("RPR104", 11),
    ]


def test_shadowed_hash_is_not_flagged():
    source = (
        '"""Doc."""\n'
        "def hash(x):\n"
        '    """Local hash."""\n'
        "    return 0\n"
        "def use(x):\n"
        '    """Use it."""\n'
        "    return hash(x)\n"
    )
    assert lint_source("mod.py", source, module="repro.core._fx") == []


def test_module_level_clock_read_fires():
    source = (
        '"""Core module reading the clock at import."""\n'
        "import time\n"
        "STARTED = time.time()\n"
    )
    flagged = lint_source("mod.py", source, module="repro.perf._fx")
    assert [(v.code, v.line) for v in flagged] == [("RPR601", 3)]


def test_class_body_clock_read_fires():
    source = (
        '"""Core module reading the clock in a class body."""\n'
        "from datetime import datetime\n"
        "class Run:\n"
        '    """Stamped when the class is defined."""\n'
        "    created = datetime.now()\n"
    )
    flagged = lint_source("mod.py", source, module="repro.perf._fx")
    assert [(v.code, v.line) for v in flagged] == [("RPR601", 5)]
