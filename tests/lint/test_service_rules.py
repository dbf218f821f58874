"""RPR602 at depth 0: blocking calls in service coroutines."""

from tests.lint.conftest import codes_of

#: Pretend module placing a fixture inside the service package.
SERVICE_MODULE = "repro.service._lint_fixture"


def test_blocking_fixture_flags_every_call(lint_fixture):
    violations = lint_fixture("svc_async_bad.py", module=SERVICE_MODULE)
    assert [(v.code, v.line) for v in violations] == [
        ("RPR602", line) for line in (13, 14, 15, 21)
    ]


def test_sanctioned_patterns_are_clean(lint_fixture):
    assert lint_fixture("svc_async_ok.py", module=SERVICE_MODULE) == []


def test_rule_is_scoped_to_the_service_package(lint_fixture):
    # The same blocking code is legal outside repro.service — worker
    # bootstrap and the jobs layer sleep synchronously by design.
    assert lint_fixture("svc_async_bad.py", module="repro.jobs._fx") == []
    assert lint_fixture("svc_async_bad.py", module="repro.perf._fx") == []


def test_nested_sync_def_is_the_escape_hatch(lint_fixture):
    source = (
        '"""Doc."""\n'
        "import time\n"
        "async def outer():\n"
        '    """Dispatches the nested helper to an executor."""\n'
        "    def helper():\n"
        '        """Blocking by design; runs off-loop."""\n'
        "        time.sleep(1)\n"
        "    return helper\n"
    )
    from repro.lint import lint_source

    assert lint_source("svc.py", source, module=SERVICE_MODULE) == []


def test_alias_spellings_still_flag(lint_fixture):
    # Regression guard: `from time import sleep as pause` and
    # `import time as t; t.sleep()` must both resolve through the alias
    # map — a bare name-match would miss them.
    violations = lint_fixture(
        "svc_async_alias_bad.py", module=SERVICE_MODULE
    )
    assert [(v.code, v.line) for v in violations] == [
        ("RPR602", 14), ("RPR602", 19),
    ]


def test_aliased_helper_is_subsumed_by_the_flow_pass():
    # One call hop away from the coroutine, RPR602 still flags the call
    # and sees through the alias spelling inside the helper.
    from repro.flow import Program, run_flow
    from repro.lint.registry import all_flow_rules

    helper = (
        "src/repro/service/helpers.py",
        '"""Aliased blocking helper."""\n'
        "from time import sleep as pause\n"
        "def settle():\n"
        '    """Blocks via the alias."""\n'
        "    pause(0.1)\n",
        "repro.service.helpers",
    )
    caller = (
        "src/repro/service/loop.py",
        '"""Coroutine one hop from the aliased sleep."""\n'
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """No lexical blocking call."""\n'
        "    settle()\n",
        "repro.service.loop",
    )
    rules = [r for r in all_flow_rules() if r.code == "RPR602"]
    result = run_flow(Program.from_sources([helper, caller]), rules=rules)
    assert codes_of(result.violations) == ["RPR602"]
    assert "time.sleep" in result.violations[0].message


def test_service_package_itself_is_clean():
    # The shipped daemon must satisfy its own responsiveness rule.
    from pathlib import Path

    from repro.lint import lint_paths

    root = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"
    result = lint_paths([root])
    assert [v for v in result.violations if v.code == "RPR602"] == []
