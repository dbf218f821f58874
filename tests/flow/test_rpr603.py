"""RPR603 — cross-function fsync-before-rename.

The per-file RPR201/RPR502 rules check one function at a time; these
cases split the fsync and the rename across functions and modules, so
only the spliced whole-program event stream can order them.
"""

from tests.flow.conftest import codes_of, flow_violations

from repro.lint import lint_source

#: A publish helper OUTSIDE the durable packages. It uses ``os.rename``
#: deliberately: RPR201 only audits ``os.replace`` (everywhere) and
#: RPR502 only applies inside the durable packages, so this spelling in
#: this module is invisible to every per-file rule.
NAKED_PUBLISHER = (
    "repro.io.atomic",
    '"""Publish helper outside the durable scope."""\n'
    "import os\n"
    "def publish(tmp, final):\n"
    '    """Renames without syncing."""\n'
    "    os.rename(tmp, final)\n",
)


def test_unsynced_helper_rename_flags_at_durable_root():
    caller = (
        "repro.durable.store",
        '"""Durable code delegating its publish."""\n'
        "from repro.io.atomic import publish\n"
        "def save(tmp, final):\n"
        '    """No fsync anywhere on the path."""\n'
        "    publish(tmp, final)\n",
    )
    violations = flow_violations(
        NAKED_PUBLISHER, caller, select=("RPR603",)
    )
    assert codes_of(violations) == ["RPR603"]
    v = violations[0]
    assert v.path == "src/repro/durable/store.py"
    assert "os.rename" in v.message
    assert "repro.io.atomic" in v.message


def test_per_file_rules_provably_cannot_catch_it():
    # The durable module has no rename; the helper module is outside
    # RPR502's scope (and fsyncless os.replace there is legal).
    caller_module = "repro.durable.store"
    caller_source = (
        '"""Durable code delegating its publish."""\n'
        "from repro.io.atomic import publish\n"
        "def save(tmp, final):\n"
        '    """No fsync anywhere on the path."""\n'
        "    publish(tmp, final)\n"
    )
    assert lint_source("store.py", caller_source, module=caller_module) == []
    helper_module, helper_source = NAKED_PUBLISHER
    assert (
        lint_source("atomic.py", helper_source, module=helper_module) == []
    )


def test_fsync_in_root_before_the_call_orders_the_publish():
    caller = (
        "repro.durable.store",
        '"""Durable code that syncs before delegating."""\n'
        "import os\n"
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """fsync first, then publish."""\n'
        "    os.fsync(fd)\n"
        "    publish(tmp, final)\n",
    )
    assert (
        flow_violations(NAKED_PUBLISHER, caller, select=("RPR603",)) == []
    )


def test_fsync_inside_helper_before_rename_is_clean():
    helper = (
        "repro.io.atomic",
        '"""Helper that syncs itself."""\n'
        "import os\n"
        "def publish(fd, tmp, final):\n"
        '    """Correct order inside the helper."""\n'
        "    os.fsync(fd)\n"
        "    os.replace(tmp, final)\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller."""\n'
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """Helper owns the ordering."""\n'
        "    publish(fd, tmp, final)\n",
    )
    assert flow_violations(helper, caller, select=("RPR603",)) == []


def test_fsync_after_the_call_does_not_excuse_it():
    caller = (
        "repro.durable.store",
        '"""Durable code syncing too late."""\n'
        "import os\n"
        "from repro.io.atomic import publish\n"
        "def save(fd, tmp, final):\n"
        '    """Wrong order."""\n'
        "    publish(tmp, final)\n"
        "    os.fsync(fd)\n",
    )
    violations = flow_violations(
        NAKED_PUBLISHER, caller, select=("RPR603",)
    )
    assert codes_of(violations) == ["RPR603"]


def test_direct_rename_in_durable_root_is_left_to_per_file_rules():
    caller = (
        "repro.durable.store",
        '"""Direct rename — RPR502/RPR201 territory, not RPR603."""\n'
        "import os\n"
        "def save(tmp, final):\n"
        '    """Direct, unsynced — but per-file rules own this."""\n'
        "    os.rename(tmp, final)\n",
    )
    assert flow_violations(caller, select=("RPR603",)) == []
    # ...and the per-file rule does fire on it:
    module, source = caller
    assert "RPR502" in codes_of(lint_source("s.py", source, module=module))


def test_recursive_chain_terminates():
    helper = (
        "repro.io.atomic",
        '"""Mutually recursive helpers ending in a rename."""\n'
        "import os\n"
        "def a(tmp, final):\n"
        '    """Recurses."""\n'
        "    b(tmp, final)\n"
        "def b(tmp, final):\n"
        '    """Recurses back, then renames."""\n'
        "    a(tmp, final)\n"
        "    os.replace(tmp, final)\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller of the cycle."""\n'
        "from repro.io.atomic import a\n"
        "def save(tmp, final):\n"
        '    """Must terminate and still flag."""\n'
        "    a(tmp, final)\n",
    )
    violations = flow_violations(helper, caller, select=("RPR603",))
    assert codes_of(violations) == ["RPR603"]


def test_waived_helper_rename_is_not_a_publish():
    # Moving a corrupt file aside publishes nothing trusted: the helper's
    # own RPR201 waiver covers every durable caller too.
    helper = (
        "repro.io.atomic",
        '"""Helper that moves corrupt files aside."""\n'
        "import os\n"
        "def move_aside(path, target):\n"
        '    """Best-effort evidence rename."""\n'
        "    os.replace(path, target)  # repro: noqa[RPR201]\n",
    )
    caller = (
        "repro.durable.store",
        '"""Durable caller quarantining a corrupt file."""\n'
        "from repro.io.atomic import move_aside\n"
        "def quarantine(path, target):\n"
        '    """No fsync: the file is already corrupt."""\n'
        "    move_aside(path, target)\n",
    )
    assert flow_violations(helper, caller, select=("RPR603",)) == []
    unwaived = (helper[0], helper[1].replace("  # repro: noqa[RPR201]", ""))
    violations = flow_violations(unwaived, caller, select=("RPR603",))
    assert codes_of(violations) == ["RPR603"]
