"""``repro.adversary`` is inside the simulation core's determinism scope.

The adversary suite's whole value rests on reproducibility — an attack
that cannot be replayed cannot be regression-pinned — so its package is
listed in ``SIM_CORE_PACKAGES`` and the RPR601 determinism pass must
treat it exactly like the benign workload generators, both at the
offending call and through a helper outside the core.
"""

from tests.flow.conftest import flow_violations
from tests.lint.conftest import codes_of

from repro.lint import SIM_CORE_PACKAGES


def test_adversary_package_is_sim_core():
    assert "repro.adversary" in SIM_CORE_PACKAGES


def test_unseeded_adversary_generator_flags_rpr102(lint_fixture):
    violations = lint_fixture(
        "adv_rng_bad.py", module="repro.adversary._lint_fixture"
    )
    assert [(v.code, v.line) for v in violations] == [("RPR601", 16)]
    assert "default_rng" in violations[0].source


def test_unseeded_rng_through_helper_flags_rpr601():
    # No lexical violation in the adversary module: the unseeded draw
    # hides one hop away, outside the core. Only the interprocedural
    # pass can see it — and it must, because the module is sim-core.
    helper = (
        "repro.io.noise",
        '"""Helper outside the core."""\n'
        "import numpy as np\n"
        "def entropy_stream(n):\n"
        '    """Unseeded draw."""\n'
        "    return np.random.default_rng().integers(0, 10, n)\n",
    )
    caller = (
        "repro.adversary.sneaky",
        '"""Adversary module with no lexical violation."""\n'
        "from repro.io.noise import entropy_stream\n"
        "def next_batch(n):\n"
        '    """Leaks entropy through the helper."""\n'
        "    return entropy_stream(n)\n",
    )
    violations = flow_violations(helper, caller, select=("RPR601",))
    assert codes_of(violations) == ["RPR601"]
    assert violations[0].path == "src/repro/adversary/sneaky.py"
