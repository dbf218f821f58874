"""RPR602 — transitive async-blocking in the service package.

Every flagged case here is a chain: the coroutine contains no blocking
call itself, including the alias spellings — which RPR602 also catches
in the coroutine's own body, pinned in
``tests/lint/test_service_rules.py``.
"""

from tests.flow.conftest import codes_of, flow_violations

from repro.lint import lint_source

SYNC_SLEEPER = (
    "repro.service.helpers",
    '"""Sync helper that blocks."""\n'
    "import time\n"
    "def settle():\n"
    '    """Blocks by design."""\n'
    "    time.sleep(0.1)\n",
)

ASYNC_CALLER = (
    "repro.service.loop",
    '"""Coroutine with no lexical blocking call."""\n'
    "from repro.service.helpers import settle\n"
    "async def run():\n"
    '    """Blocks through the helper."""\n'
    "    settle()\n",
)


def test_one_hop_blocking_chain_flags():
    violations = flow_violations(
        SYNC_SLEEPER, ASYNC_CALLER, select=("RPR602",)
    )
    assert codes_of(violations) == ["RPR602"]
    v = violations[0]
    assert v.path == "src/repro/service/loop.py"
    assert "time.sleep" in v.message
    assert "settle" in v.message


def test_per_file_rpr501_provably_cannot_catch_it():
    # Linted alone, without the helper, the coroutine is clean: only the
    # program that holds both modules shows the chain.
    module, source = ASYNC_CALLER
    assert lint_source("loop.py", source, module=module) == []


def test_alias_spelling_subsumed_through_one_hop():
    # Satellite check: the helper uses the aliased import spelling; the
    # chain still resolves and flags.
    helper = (
        "repro.service.helpers",
        '"""Aliased blocking helper."""\n'
        "from time import sleep as pause\n"
        "def settle():\n"
        '    """Blocks via an alias."""\n'
        "    pause(0.1)\n",
    )
    violations = flow_violations(helper, ASYNC_CALLER, select=("RPR602",))
    assert codes_of(violations) == ["RPR602"]


def test_deep_chain_flags_at_the_first_hop():
    middle = (
        "repro.service.mid",
        '"""Relay."""\n'
        "from repro.service.helpers import settle\n"
        "def relay():\n"
        '    """One more sync hop."""\n'
        "    settle()\n",
    )
    caller = (
        "repro.service.loop",
        '"""Coroutine two hops from the sleep."""\n'
        "from repro.service.mid import relay\n"
        "async def run():\n"
        '    """Deep chain."""\n'
        "    relay()\n",
    )
    violations = flow_violations(
        SYNC_SLEEPER, middle, caller, select=("RPR602",)
    )
    assert codes_of(violations) == ["RPR602"]
    assert "relay" in violations[0].message


def test_executor_dispatch_is_the_sanctioned_escape():
    caller = (
        "repro.service.loop",
        '"""Coroutine dispatching to a thread."""\n'
        "import asyncio\n"
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Off-loop, so legal."""\n'
        "    await asyncio.to_thread(settle)\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR602",)) == []


def test_run_in_executor_dispatch_is_clean_too():
    caller = (
        "repro.service.loop",
        '"""Coroutine using the loop executor."""\n'
        "import asyncio\n"
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Off-loop, so legal."""\n'
        "    loop = asyncio.get_running_loop()\n"
        "    await loop.run_in_executor(None, settle)\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR602",)) == []


def test_noqa_at_blocking_site_waives_the_chain():
    helper = (
        "repro.service.helpers",
        '"""Helper with a justified waiver."""\n'
        "import time\n"
        "def settle():\n"
        '    """Bounded, single-consumer stall by design."""\n'
        "    time.sleep(0.001)  # repro: noqa[RPR602]\n",
    )
    assert flow_violations(helper, ASYNC_CALLER, select=("RPR602",)) == []


def test_coroutines_outside_service_are_not_roots():
    caller = (
        "repro.jobs.runner",
        '"""Jobs-layer coroutine; blocking is its own business."""\n'
        "from repro.service.helpers import settle\n"
        "async def run():\n"
        '    """Not a service coroutine."""\n'
        "    settle()\n",
    )
    assert flow_violations(SYNC_SLEEPER, caller, select=("RPR602",)) == []


def test_nested_sync_def_called_inline_still_flags():
    # A nested def is its own scope because it usually runs off-loop;
    # when the coroutine calls it INLINE the stall is real, and the
    # call graph sees that.
    caller = (
        "repro.service.loop",
        '"""Nested helper abused inline."""\n'
        "import time\n"
        "async def run():\n"
        '    """Calls the nested blocker synchronously."""\n'
        "    def helper():\n"
        '        """Blocking."""\n'
        "        time.sleep(0.1)\n"
        "    helper()\n",
    )
    violations = flow_violations(caller, select=("RPR602",))
    assert [(v.code, v.line) for v in violations] == [("RPR602", 8)]
    # Linting the file alone reports the same chain: it stays inside
    # the one module.
    module, source = caller
    flagged = lint_source("loop.py", source, module=module)
    assert [(v.code, v.line) for v in flagged] == [("RPR602", 8)]
