"""The flow engine: build the analysis once, run every flow pass.

:func:`analyze` turns a :class:`~repro.flow.program.Program` into a
:class:`FlowAnalysis` — symbol table, call graph, and the shared
services the RPR6xx passes consume (suppression lookup, the memoised
mutation summary). :func:`run_flow` then executes every registered flow
rule (or a selected subset) over it and returns the surviving, sorted
violations plus the run's statistics.

Suppression filtering happens twice, deliberately: passes consult
:meth:`FlowAnalysis.covers` at *source sites* (a ``noqa[RPR601]`` on a
clock read also de-taints every interprocedural path seeded by it), and
the engine filters final findings at their *report sites* — so both the
cause and the boundary edge can be waived independently.

Telemetry: one guarded read per run, counters only, byte-identical
output when telemetry is disabled (the repository-wide contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.flow.callgraph import CallGraph, GraphBuilder
from repro.flow.program import Program
from repro.flow.symbols import SymbolTable
from repro.lint.registry import FlowRule, all_flow_rules
from repro.lint.violation import Violation
from repro.telemetry.context import current as telemetry_current

__all__ = ["FlowAnalysis", "FlowResult", "analyze", "run_flow"]


class FlowAnalysis:
    """Everything a flow pass needs, built once per run."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.symtab = SymbolTable(program)
        self.builder = GraphBuilder(self.symtab)
        self.graph: CallGraph = self.builder.build()
        #: Shared memo for the RPR604 mutation summary (rules module).
        self.mutation_memo: Dict[str, bool] = {}

    def covers(self, path: str, code: str, line: int) -> bool:
        """Whether a ``noqa``/``noqa-file`` waives *code* at *path:line*."""
        suppressions = self.program.suppressions_for(path)
        return suppressions is not None and suppressions.covers(code, line)


class FlowResult:
    """Outcome of one whole-program analysis run."""

    def __init__(
        self,
        violations: List[Violation],
        analysis: FlowAnalysis,
    ) -> None:
        self.violations = violations
        self.analysis = analysis
        graph = analysis.graph
        self.stats: Dict[str, int] = {
            "modules": len(analysis.symtab.contexts),
            "functions": len(analysis.symtab.functions),
            "classes": len(analysis.symtab.classes),
            "call_edges": len(graph.edges),
            "external_calls": len(graph.external),
            "primitive_calls": len(graph.primitives),
            "unresolved_calls": len(graph.unresolved),
            "findings": len(violations),
        }

    @property
    def ok(self) -> bool:
        """True when no flow findings survived suppression filtering."""
        return not self.violations


def analyze(program: Program) -> FlowAnalysis:
    """Build the whole-program analysis (symbols + call graph)."""
    return FlowAnalysis(program)


def run_flow(
    program: Program,
    rules: Optional[Sequence[FlowRule]] = None,
    analysis: Optional[FlowAnalysis] = None,
) -> FlowResult:
    """Run the flow passes over *program* and return the findings.

    Pass *analysis* to reuse an already-built graph (the CLI builds it
    once for both the passes and the export).
    """
    if analysis is None:
        analysis = analyze(program)
    active = all_flow_rules() if rules is None else list(rules)
    found: List[Violation] = []
    for rule in active:
        for violation in rule.check(analysis):
            if analysis.covers(
                violation.path, violation.code, violation.line
            ):
                continue
            found.append(violation)
    result = FlowResult(sorted(found), analysis)
    tel = telemetry_current()
    if tel is not None and tel.metrics is not None:
        tel.metrics.counter("flow_runs_total").inc()
        tel.metrics.counter("flow_modules_total").inc(
            result.stats["modules"]
        )
        tel.metrics.counter("flow_functions_total").inc(
            result.stats["functions"]
        )
        tel.metrics.counter("flow_call_edges_total").inc(
            result.stats["call_edges"]
        )
        tel.metrics.counter("flow_unresolved_calls_total").inc(
            result.stats["unresolved_calls"]
        )
        tel.metrics.counter("flow_findings_total").inc(
            result.stats["findings"]
        )
    return result
