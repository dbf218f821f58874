"""Suppression machinery: line noqa, file waivers, malformed comments."""

from tests.lint.conftest import codes_of

from repro.lint import lint_source


def test_suppressed_fixture_mixes_waived_and_live(lint_fixture):
    violations = lint_fixture("suppressed.py")
    # The file-level RPR202 waiver and the line-level RPR601 noqa hold;
    # the un-annotated datetime.now() stays live and the blanket noqa is
    # itself reported as malformed.
    assert [(v.code, v.line) for v in violations] == [
        ("RPR601", 16), ("RPR002", 21),
    ]


def test_line_noqa_only_covers_its_own_code():
    source = (
        '"""Doc."""\n'
        "import time\n"
        "def stamp():\n"
        '    """Clock read with the wrong waiver code."""\n'
        "    return time.time()  # repro: noqa[RPR999]\n"
    )
    flagged = lint_source("m.py", source, module="repro.core._fx")
    assert codes_of(flagged) == ["RPR601"]


def test_noqa_in_docstring_is_not_a_suppression():
    source = (
        '"""Mentions # repro: noqa[RPR601] in prose only."""\n'
        "import time\n"
        "def stamp():\n"
        '    """Read the clock."""\n'
        "    return time.time()\n"
    )
    flagged = lint_source("m.py", source, module="repro.core._fx")
    assert codes_of(flagged) == ["RPR601"]


def test_parse_error_reports_rpr001():
    flagged = lint_source("broken.py", "def f(:\n", module=None)
    assert codes_of(flagged) == ["RPR001"]


# --- Flow findings ride the same suppression machinery -----------------

_TAINT_HELPER = (
    "src/repro/io/timeutil.py",
    '"""Helper outside the core."""\n'
    "import time\n"
    "def stamp():\n"
    '    """Reads the wall clock."""\n'
    "    return time.time()\n",
    "repro.io.timeutil",
)


def _flow_over(*triples):
    from repro.flow import Program, run_flow

    return run_flow(Program.from_sources(list(triples))).violations


def test_noqa_file_waives_flow_findings_at_the_report_site():
    caller = (
        "src/repro/perf/model.py",
        '"""Core module, wholesale waiver."""\n'
        "# repro: noqa-file[RPR601]\n"
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Waived."""\n'
        "    return stamp()\n",
        "repro.perf.model",
    )
    assert _flow_over(_TAINT_HELPER, caller) == []


def test_line_noqa_waives_flow_findings_at_the_report_line():
    caller = (
        "src/repro/perf/model.py",
        '"""Core module with a line waiver."""\n'
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Waived at the call line."""\n'
        "    return stamp()  # repro: noqa[RPR601]\n",
        "repro.perf.model",
    )
    assert _flow_over(_TAINT_HELPER, caller) == []


def test_wrong_code_in_noqa_leaves_the_flow_finding_live():
    caller = (
        "src/repro/perf/model.py",
        '"""Core module with the wrong waiver code."""\n'
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Waiver names a different rule."""\n'
        "    return stamp()  # repro: noqa[RPR999]\n",
        "repro.perf.model",
    )
    assert codes_of(_flow_over(_TAINT_HELPER, caller)) == ["RPR601"]


def test_analysis_covers_resolves_paths_and_lines():
    from repro.flow import Program, analyze

    caller = (
        "src/repro/perf/model.py",
        '"""Core module with a line waiver."""\n'
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Waived at the call line."""\n'
        "    return stamp()  # repro: noqa[RPR601]\n",
        "repro.perf.model",
    )
    analysis = analyze(Program.from_sources([_TAINT_HELPER, caller]))
    assert analysis.covers("src/repro/perf/model.py", "RPR601", 5)
    assert not analysis.covers("src/repro/perf/model.py", "RPR601", 4)
    assert not analysis.covers("src/repro/perf/model.py", "RPR602", 5)
    assert not analysis.covers("unknown/path.py", "RPR601", 5)
