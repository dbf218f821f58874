"""RPR104 — ordering-sensitive ``hash()`` in the simulation core.

The paper's two-phase methodology regenerates every table from seeded
simulation: phase 1 collects signatures, phase 2 replays the chosen
schedule against modelled timing. Content-addressed result caching
(``repro.jobs.keys``) and the chaos suite's byte-identical pinning both
assume a run is a pure function of its spec. The builtin ``hash()`` of
a ``str`` or ``bytes`` is randomised per process, so anything ordered or
bucketed by it differs across workers.

Clock reads, unseeded RNGs and OS entropy are the flow pass RPR601's
(:mod:`repro.flow.rules`), which sees them in a core function's own
body and through any chain of calls. Both rules are scoped to
:data:`~repro.lint.context.SIM_CORE_PACKAGES` only, and their findings
can never be baselined.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_SIM_CORE, register
from repro.lint.violation import Violation


@register(
    "RPR104",
    "ordering-sensitive-hash",
    "builtin hash() inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "str/bytes hash() is randomised per process (PYTHONHASHSEED), so "
        "anything ordered or bucketed by it differs across workers. Use "
        "repro.core.hashes or hashlib digests."
    ),
)
def check_builtin_hash(module: ModuleContext) -> Iterator[Violation]:
    """Flag calls to the randomised builtin ``hash()``."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if module.resolve_call(node) == "hash":
            lineno = node.lineno
            yield Violation(
                path=module.path,
                line=lineno,
                col=node.col_offset + 1,
                code="RPR104",
                message=(
                    "builtin hash() is randomised per process "
                    "(PYTHONHASHSEED); use a stable digest "
                    "(repro.utils.rng.stable_seed or hashlib)"
                ),
                source=module.source_line(lineno),
            )
