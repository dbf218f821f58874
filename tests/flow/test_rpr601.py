"""RPR601 — determinism taint through call chains.

The defining property of most cases here: the sim-core module contains
no banned call itself, so linting it alone sees nothing, yet the
whole-program pass catches the leak through the call chain.
"""

from tests.flow.conftest import codes_of, flow_violations

from repro.lint import lint_source

#: A helper module deliberately OUTSIDE the sim-core packages.
HELPER = (
    "repro.io.timeutil",
    '"""Helper outside the core."""\n'
    "import time\n"
    "def stamp():\n"
    '    """Reads the wall clock."""\n'
    "    return time.time()\n",
)

CORE_CALLER = (
    "repro.perf.model",
    '"""Sim-core module with no lexical violation."""\n'
    "from repro.io.timeutil import stamp\n"
    "def simulate():\n"
    '    """Leaks wall-clock through the helper."""\n'
    "    return stamp()\n",
)


def test_taint_through_one_helper_hop():
    violations = flow_violations(HELPER, CORE_CALLER, select=("RPR601",))
    assert codes_of(violations) == ["RPR601"]
    v = violations[0]
    assert v.path == "src/repro/perf/model.py"
    assert "time.time" in v.message
    assert "stamp" in v.message  # the rendered path names the chain


def test_per_file_rules_provably_cannot_catch_it():
    # The same sim-core source linted alone, without the helper: clean.
    # Only the program that holds both modules shows the chain.
    module, source = CORE_CALLER
    assert lint_source("model.py", source, module=module) == []


def test_taint_through_two_hops_renders_full_path():
    middle = (
        "repro.io.plumbing",
        '"""Second hop."""\n'
        "from repro.io.timeutil import stamp\n"
        "def relay():\n"
        '    """Innocent-looking relay."""\n'
        "    return stamp()\n",
    )
    caller = (
        "repro.perf.model",
        '"""Core."""\n'
        "from repro.io.plumbing import relay\n"
        "def simulate():\n"
        '    """Two hops from the clock."""\n'
        "    return relay()\n",
    )
    violations = flow_violations(HELPER, middle, caller, select=("RPR601",))
    assert codes_of(violations) == ["RPR601"]
    message = violations[0].message
    assert "relay" in message and "stamp" in message
    assert "time.time" in message


def test_noqa_at_source_site_detaints_the_whole_chain():
    helper = (
        "repro.io.timeutil",
        '"""Helper with a justified waiver at the source."""\n'
        "import time\n"
        "def stamp():\n"
        '    """Telemetry-only read."""\n'
        "    return time.time()  # repro: noqa[RPR601]\n",
    )
    assert flow_violations(helper, CORE_CALLER, select=("RPR601",)) == []


def test_noqa_file_waives_findings_in_the_core_module():
    caller = (
        "repro.perf.model",
        '"""Core module with a module-level waiver."""\n'
        "# repro: noqa-file[RPR601]\n"
        "from repro.io.timeutil import stamp\n"
        "def simulate():\n"
        '    """Waived wholesale."""\n'
        "    return stamp()\n",
    )
    assert flow_violations(HELPER, caller, select=("RPR601",)) == []


def test_rng_and_entropy_sources_taint_too():
    helper = (
        "repro.io.entropy",
        '"""Entropy helper outside the core."""\n'
        "import os\n"
        "import random\n"
        "def token():\n"
        '    """OS entropy."""\n'
        "    return os.urandom(8)\n"
        "def draw():\n"
        '    """Global RNG."""\n'
        "    return random.random()\n",
    )
    caller = (
        "repro.cache.model",
        '"""Core caller."""\n'
        "from repro.io.entropy import draw, token\n"
        "def a():\n"
        '    """Reaches entropy."""\n'
        "    return token()\n"
        "def b():\n"
        '    """Reaches the RNG."""\n'
        "    return draw()\n",
    )
    violations = flow_violations(helper, caller, select=("RPR601",))
    assert codes_of(violations) == ["RPR601", "RPR601"]


def test_seeded_rng_in_helper_is_not_a_source():
    helper = (
        "repro.io.rng",
        '"""Seeded construction is fine."""\n'
        "import numpy as np\n"
        "def make(seed):\n"
        '    """Explicitly seeded."""\n'
        "    return np.random.default_rng(seed)\n",
    )
    caller = (
        "repro.perf.model",
        '"""Core caller."""\n'
        "from repro.io.rng import make\n"
        "def simulate():\n"
        '    """Seeded path — clean."""\n'
        "    return make(42)\n",
    )
    assert flow_violations(helper, caller, select=("RPR601",)) == []


def test_core_to_core_chains_are_left_to_per_file_rules():
    # A sim-core helper that reads the clock is flagged at the read
    # itself (depth 0); the core caller crosses no boundary and is not
    # flagged again.
    helper = (
        "repro.utils.clock",
        '"""Core-internal offender."""\n'
        "import time\n"
        "def stamp():\n"
        '    """Depth-0 finding."""\n'
        "    return time.time()\n",
    )
    caller = (
        "repro.perf.model",
        '"""Core caller of a core helper."""\n'
        "from repro.utils.clock import stamp\n"
        "def simulate():\n"
        '    """No boundary crossed."""\n'
        "    return stamp()\n",
    )
    violations = flow_violations(helper, caller, select=("RPR601",))
    assert [(v.path, v.line) for v in violations] == [
        ("src/repro/utils/clock.py", 5)
    ]
    assert "time.time" in violations[0].message
    module, source = helper
    assert codes_of(lint_source("clock.py", source, module=module)) == [
        "RPR601"
    ]


def test_set_iteration_escaping_to_output_flags():
    module = (
        "repro.sched.order",
        '"""Core module ordering by set iteration."""\n'
        "def schedule(items):\n"
        '    """Iterates a set literal into its output."""\n'
        "    out = []\n"
        '    for x in {"a", "b", "c"}:\n'
        "        out.append(x)\n"
        "    return out\n",
    )
    violations = flow_violations(module, select=("RPR601",))
    assert codes_of(violations) == ["RPR601"]
    assert "PYTHONHASHSEED" in violations[0].message


def test_set_iteration_without_output_is_clean():
    module = (
        "repro.sched.order",
        '"""Core module; set iteration stays internal."""\n'
        "def warm(items):\n"
        '    """No value escapes."""\n'
        "    for x in set(items):\n"
        "        items.count(x)\n",
    )
    assert flow_violations(module, select=("RPR601",)) == []


def test_rpr601_findings_refuse_to_baseline():
    import pytest

    from repro.errors import ConfigurationError
    from repro.lint.baseline import Baseline

    violations = flow_violations(HELPER, CORE_CALLER, select=("RPR601",))
    with pytest.raises(ConfigurationError):
        Baseline.from_violations(violations)
