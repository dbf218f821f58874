"""repro.flow — whole-program call-graph and dataflow analysis.

Every lint run (:mod:`repro.lint`) includes this analysis: it shares
the run's parse (the same :class:`~repro.lint.engine.LoadedModule`
objects), resolves imports into a project symbol table, builds a call
graph — method calls resolved through the class hierarchy, ``asyncio``
task and executor dispatches tracked as their own edge kinds — and runs
the RPR6xx passes over it. Each pass is the one rule for its invariant
and reports the offending call in a function's own body (depth 0) as
well as the chains of calls that reach one:

* RPR601 — sim-core code reaching a clock, OS entropy or an unseeded RNG
* RPR602 — service coroutines reaching blocking calls
* RPR603 — renames with no fsync ordered before them
* RPR604 — service state mutated on both sides of an ``await``

Entry points: ``repro-cli lint`` (with the per-file rules, one parse),
:func:`~repro.flow.engine.run_flow` programmatically, and the exporters
in :mod:`repro.flow.export` for the call-graph JSON/DOT artifacts CI
uploads.
"""

from repro.flow.engine import FlowAnalysis, FlowResult, analyze, run_flow
from repro.flow.export import callgraph_dot, callgraph_json
from repro.flow.program import Program, load_program

__all__ = [
    "FlowAnalysis",
    "FlowResult",
    "Program",
    "analyze",
    "callgraph_dot",
    "callgraph_json",
    "load_program",
    "run_flow",
]
