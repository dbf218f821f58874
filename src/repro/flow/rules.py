"""RPR6xx — whole-program dataflow rules.

Each rule here follows an invariant *across* function and module
boundaries using the call graph, which is exactly what the per-file
RPR1xx/RPR5xx rules cannot do:

* **RPR601** — interprocedural determinism taint. A sim-core function
  that calls a helper *outside* the core packages which (transitively)
  reads a clock, OS entropy, or an unseeded RNG has the same
  reproducibility bug RPR101–103 ban, laundered through one call hop.
  Also flags iteration over ``set`` literals/constructors in sim-core
  functions that produce output — unordered iteration order escaping
  into results is PYTHONHASHSEED-dependent.
* **RPR602** — transitive async-blocking. RPR501 bans ``time.sleep``
  lexically inside ``async def``; this pass bans it at *any* depth
  through a chain of synchronous helpers called (not dispatched to an
  executor) from a service coroutine.
* **RPR603** — cross-function fsync-before-rename. RPR502 checks one
  function at a time; this pass inlines the callee event streams so a
  durable-scope function that delegates its publish to a helper in a
  *non*-durable module still needs an ``os.fsync`` ordered before it.
* **RPR604** — await-interleaving race. Async methods of service
  classes that mutate shared instance state on *both sides* of an
  ``await`` can interleave with a concurrent handler between the
  mutations; all mutation is supposed to flow through the single-writer
  ``_handle`` seam.

Every pass is deterministic: functions are visited in sorted-qname
order, worklists are seeded sorted, and each finding is deduplicated on
a stable key — two runs over the same tree emit byte-identical reports.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.flow.callgraph import KIND_CALL, PrimitiveCall
from repro.flow.symbols import FunctionInfo
from repro.lint.registry import (
    SCOPE_DURABLE,
    SCOPE_SERVICE,
    SCOPE_SIM_CORE,
    register_flow,
)
from repro.lint.violation import Violation

__all__ = ["SINGLE_WRITER_SEAMS"]

#: Method names that are the sanctioned single-writer mutation seam:
#: calls to them are not counted as shared-state mutations by RPR604,
#: because the seam runs on exactly one consumer task by construction.
SINGLE_WRITER_SEAMS: Tuple[str, ...] = ("_handle",)

#: Inline depth cap for the RPR603 event splice (cycles are skipped
#: outright; this bounds pathological deep chains).
_INLINE_DEPTH = 12

#: Per-file code waiving a flow source site, by primitive category: a
#: ``noqa`` that already waives the lexical rule at the source line also
#: waives the interprocedural findings seeded by that line.
_SOURCE_WAIVERS = {
    "clock": ("RPR101", "RPR601"),
    "rng": ("RPR102", "RPR601"),
    "entropy": ("RPR103", "RPR601"),
    "blocking": ("RPR501", "RPR602"),
}


def _violation(
    analysis: Any, fn: FunctionInfo, line: int, code: str, message: str
) -> Violation:
    context = analysis.symtab.contexts[fn.module]
    return Violation(
        path=context.path,
        line=line,
        col=1,
        code=code,
        message=message,
        source=context.source_line(line),
    )


def _source_waived(
    analysis: Any, primitive: PrimitiveCall
) -> bool:
    """Whether the primitive's own site carries a waiving ``noqa``."""
    fn = analysis.symtab.functions[primitive.caller]
    path = analysis.symtab.contexts[fn.module].path
    return any(
        analysis.covers(path, code, primitive.lineno)
        for code in _SOURCE_WAIVERS.get(primitive.category, ())
    )


def _site(analysis: Any, primitive: PrimitiveCall) -> str:
    fn = analysis.symtab.functions[primitive.caller]
    path = analysis.symtab.contexts[fn.module].path
    return f"{path}:{primitive.lineno}"


def _reverse_reach(
    analysis: Any,
    direct: Dict[str, PrimitiveCall],
    kinds: Optional[Tuple[str, ...]] = None,
    sync_only: bool = False,
) -> Tuple[Dict[str, PrimitiveCall], Dict[str, str]]:
    """Reverse-BFS from primitive-holding functions.

    Returns ``(root_primitive, next_hop)``: for every function that can
    reach a primitive, the primitive it reaches and the first callee on
    one shortest path there (for rendering). Seeded and traversed in
    sorted order, so ties always break the same way.
    """
    graph = analysis.graph
    functions = analysis.symtab.functions
    reach: Dict[str, PrimitiveCall] = dict(direct)
    hop: Dict[str, str] = {}
    queue = deque(sorted(direct))
    while queue:
        current = queue.popleft()
        for edge in graph.callers(current):
            if kinds is not None and edge.kind not in kinds:
                continue
            caller = edge.caller
            if caller in reach:
                continue
            if sync_only and caller in functions and (
                functions[caller].is_async
            ):
                # Async callers are their own analysis roots; the chain
                # below them is what this reach set is for.
                continue
            reach[caller] = reach[current]
            hop[caller] = current
            queue.append(caller)
    return reach, hop


def _render_path(
    analysis: Any,
    start: str,
    hop: Dict[str, str],
    primitive: PrimitiveCall,
) -> str:
    parts = [start]
    current = start
    seen = {start}
    while current in hop:
        current = hop[current]
        if current in seen:
            break
        seen.add(current)
        parts.append(current)
    parts.append(f"{primitive.target} ({_site(analysis, primitive)})")
    return " -> ".join(parts)


# ---------------------------------------------------------------------
# RPR601 — interprocedural determinism taint
# ---------------------------------------------------------------------


def _body_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """All nodes executed by *node*'s own body (nested scopes skipped)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Lambda),
        ):
            continue
        yield child
        yield from _body_nodes(child)


def _has_output(fn: FunctionInfo) -> bool:
    """Whether *fn* returns or yields a value (results can escape)."""
    for node in _body_nodes(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _set_iteration_lines(analysis: Any, fn: FunctionInfo) -> List[int]:
    """Lines in *fn* that iterate a set literal/constructor directly."""
    context = analysis.symtab.contexts[fn.module]

    def is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Set):
            return True
        if isinstance(expr, ast.Call):
            return context.resolve(expr.func) in ("set", "frozenset")
        return False

    lines: List[int] = []
    for node in _body_nodes(fn.node):
        if isinstance(node, ast.For) and is_set_expr(node.iter):
            lines.append(node.iter.lineno)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        ):
            for comp in node.generators:
                if is_set_expr(comp.iter):
                    lines.append(comp.iter.lineno)
    return sorted(set(lines))


@register_flow(
    "RPR601",
    "interprocedural-determinism-taint",
    "sim-core call path reaches a nondeterminism source outside the core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "RPR101-103 see one file at a time, so a wall-clock read or "
        "unseeded RNG draw moved into a helper module outside the core "
        "packages silently re-enters the simulation through an innocent-"
        "looking call. The taint pass follows every call chain from "
        "sim-core functions and flags the boundary edge where core code "
        "first calls into a tainted non-core helper. Unordered set "
        "iteration feeding a function's output is flagged for the same "
        "reason: iteration order depends on PYTHONHASHSEED. Like RPR1xx, "
        "findings can never be baselined — fix or noqa with justification."
    ),
)
def check_determinism_taint(analysis: Any) -> Iterator[Violation]:
    """Flag sim-core → tainted-non-core boundary edges (+ set iteration)."""
    symtab = analysis.symtab
    direct: Dict[str, PrimitiveCall] = {}
    for qname in sorted(analysis.graph.primitives_by_caller):
        for primitive in analysis.graph.primitives_by_caller[qname]:
            if primitive.category not in ("clock", "entropy", "rng"):
                continue
            if _source_waived(analysis, primitive):
                continue
            direct.setdefault(qname, primitive)
            break
    reach, hop = _reverse_reach(analysis, direct)

    def is_core(qname: str) -> bool:
        fn = symtab.functions.get(qname)
        if fn is None:
            return False
        return symtab.contexts[fn.module].is_sim_core

    flagged: Set[Tuple[str, str]] = set()
    for qname in sorted(symtab.functions):
        if not is_core(qname):
            continue
        fn = symtab.functions[qname]
        for edge in analysis.graph.callees(qname):
            callee = edge.callee
            if callee not in reach or is_core(callee):
                continue
            key = (qname, callee)
            if key in flagged:
                continue
            flagged.add(key)
            primitive = reach[callee]
            path = _render_path(analysis, callee, hop, primitive)
            yield _violation(
                analysis, fn, edge.lineno, "RPR601",
                f"sim-core function {qname} calls {callee}, which "
                f"reaches nondeterministic {primitive.target}() "
                f"[{primitive.category}] outside the simulation core: "
                f"{path}; results must be a pure function of the seed",
            )
        if _has_output(fn):
            for line in _set_iteration_lines(analysis, fn):
                yield _violation(
                    analysis, fn, line, "RPR601",
                    f"sim-core function {qname} iterates a set while "
                    "producing output; set iteration order depends on "
                    "PYTHONHASHSEED and leaks into results — sort the "
                    "elements first",
                )


# ---------------------------------------------------------------------
# RPR602 — transitive async-blocking
# ---------------------------------------------------------------------


@register_flow(
    "RPR602",
    "transitive-blocking-in-async",
    "service coroutine reaches a blocking call through sync helpers",
    scope=SCOPE_SERVICE,
    rationale=(
        "RPR501 bans blocking calls lexically inside async def; wrapping "
        "the same time.sleep in a synchronous helper defeats it while "
        "stalling the event loop just as thoroughly. This pass follows "
        "plain (non-executor, non-task) call chains from every service "
        "coroutine into synchronous project helpers and flags the first "
        "hop whose subtree reaches a blocking primitive. Executor and "
        "task dispatches are exempt — that is the sanctioned pattern."
    ),
)
def check_transitive_blocking(analysis: Any) -> Iterator[Violation]:
    """Flag async→sync-helper edges whose subtree blocks."""
    symtab = analysis.symtab
    direct: Dict[str, PrimitiveCall] = {}
    for qname in sorted(analysis.graph.primitives_by_caller):
        fn = symtab.functions[qname]
        if fn.is_async:
            continue  # lexically-async blocking is RPR501's finding
        for primitive in analysis.graph.primitives_by_caller[qname]:
            if primitive.category != "blocking":
                continue
            if _source_waived(analysis, primitive):
                continue
            direct.setdefault(qname, primitive)
            break
    reach, hop = _reverse_reach(
        analysis, direct, kinds=(KIND_CALL,), sync_only=True
    )
    flagged: Set[Tuple[str, str]] = set()
    for qname in sorted(symtab.functions):
        fn = symtab.functions[qname]
        if not fn.is_async:
            continue
        if not symtab.contexts[fn.module].in_package("repro.service"):
            continue
        for edge in analysis.graph.callees(qname):
            if edge.kind != KIND_CALL:
                continue
            callee = symtab.functions.get(edge.callee)
            if callee is None or callee.is_async:
                continue
            if edge.callee not in reach:
                continue
            key = (qname, edge.callee)
            if key in flagged:
                continue
            flagged.add(key)
            primitive = reach[edge.callee]
            path = _render_path(analysis, edge.callee, hop, primitive)
            yield _violation(
                analysis, fn, edge.lineno, "RPR602",
                f"'async def {fn.name}' reaches blocking "
                f"{primitive.target}() through synchronous helpers: "
                f"{qname} -> {path}; the chain stalls the event loop — "
                "await an async equivalent or dispatch the helper via "
                "run_in_executor / asyncio.to_thread",
            )


# ---------------------------------------------------------------------
# RPR603 — cross-function fsync-before-rename
# ---------------------------------------------------------------------

#: Rename spellings followed across functions. ``os.replace`` is
#: included here (unlike RPR502): per-file it is RPR201's finding, but
#: a helper in a non-durable module publishing via os.replace without a
#: prior fsync in the *combined* sequence is exactly the cross-function
#: hole this pass exists to close.
_RENAME_TARGETS = ("os.replace", "os.rename", "shutil.move")
_RENAME_METHODS = frozenset({"rename", "replace"})


@dataclass(frozen=True)
class _PublishEvent:
    """One fsync or rename in a (possibly inlined) event stream."""

    kind: str  # "fsync" | "rename"
    label: str
    site_module: str
    site_line: int


def _rename_label(analysis: Any, fn: FunctionInfo,
                  call: ast.Call) -> Optional[str]:
    context = analysis.symtab.contexts[fn.module]
    resolved = context.resolve(call.func)
    if resolved in _RENAME_TARGETS:
        return resolved
    if resolved is not None:
        return None
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _RENAME_METHODS
        and len(call.args) == 1
        and not call.keywords
    ):
        return f".{func.attr}"
    return None


def _durable_module(analysis: Any, module: str) -> bool:
    context = analysis.symtab.contexts.get(module)
    if context is None:
        return False
    return context.in_package("repro.durable") or context.in_package(
        "repro.service"
    )


def _rename_waived(analysis: Any, event: _PublishEvent) -> bool:
    """Whether the rename's own line carries a fsync-before-rename waiver.

    A ``noqa`` for RPR201, RPR502 or RPR603 on the rename itself states
    that it publishes nothing that must survive a crash (say, moving a
    corrupt file aside), so no caller owes it an fsync either.
    """
    path = analysis.symtab.contexts[event.site_module].path
    return any(
        analysis.covers(path, code, event.site_line)
        for code in ("RPR201", "RPR502", "RPR603")
    )


def _publish_events(
    analysis: Any,
    qname: str,
    memo: Dict[str, List[_PublishEvent]],
    stack: Set[str],
    depth: int,
) -> List[_PublishEvent]:
    """Flattened fsync/rename stream of *qname* and its call subtree."""
    cached = memo.get(qname)
    if cached is not None:
        return cached
    if qname in stack or depth > _INLINE_DEPTH:
        return []
    fn = analysis.symtab.functions.get(qname)
    if fn is None:
        return []
    stack.add(qname)
    events: List[_PublishEvent] = []
    for call, resolution in analysis.builder.resolve_calls(fn):
        if resolution.spawn != KIND_CALL:
            continue  # task/executor work is not ordered with this body
        if resolution.kind == "external" and resolution.target == "os.fsync":
            events.append(
                _PublishEvent("fsync", "os.fsync", fn.module, call.lineno)
            )
            continue
        label = _rename_label(analysis, fn, call)
        if label is not None:
            events.append(
                _PublishEvent("rename", label, fn.module, call.lineno)
            )
            continue
        if resolution.kind == "project":
            events.extend(
                _publish_events(analysis, resolution.target, memo,
                                stack, depth + 1)
            )
    stack.discard(qname)
    memo[qname] = events
    return events


@register_flow(
    "RPR603",
    "cross-function-unsynced-publish",
    "durable-state code reaches a rename with no fsync ordered before it",
    scope=SCOPE_DURABLE,
    rationale=(
        "RPR201/RPR502 check fsync-before-rename one function at a time, "
        "so a durable-layer function that delegates its publish to a "
        "helper in a non-durable module escapes both. This pass splices "
        "callee event streams into each durable-scope function and flags "
        "any helper-side rename with no fsync anywhere earlier in the "
        "combined order. Renames inside durable modules stay the per-"
        "file rules' findings and are not re-flagged here, and a rename "
        "whose own line waives RPR201, RPR502 or RPR603 is not a publish."
    ),
)
def check_cross_function_publish(analysis: Any) -> Iterator[Violation]:
    """Flag helper renames unordered after any fsync, per durable root."""
    symtab = analysis.symtab
    memo: Dict[str, List[_PublishEvent]] = {}
    flagged: Set[Tuple[str, str, int]] = set()
    for qname in sorted(symtab.functions):
        fn = symtab.functions[qname]
        if not _durable_module(analysis, fn.module):
            continue
        fsync_seen = False
        for call, resolution in analysis.builder.resolve_calls(fn):
            if resolution.spawn != KIND_CALL:
                continue
            if resolution.kind == "external" and (
                resolution.target == "os.fsync"
            ):
                fsync_seen = True
                continue
            if _rename_label(analysis, fn, call) is not None:
                continue  # direct renames are RPR201/RPR502 findings
            if resolution.kind != "project":
                continue
            for event in _publish_events(
                analysis, resolution.target, memo, set(), 1
            ):
                if event.kind == "fsync":
                    fsync_seen = True
                    continue
                if fsync_seen:
                    continue
                if _durable_module(analysis, event.site_module):
                    continue  # that module's own per-file finding
                if _rename_waived(analysis, event):
                    continue
                key = (qname, event.site_module, event.site_line)
                if key in flagged:
                    continue
                flagged.add(key)
                yield _violation(
                    analysis, fn, call.lineno, "RPR603",
                    f"durable-scope function {qname} calls "
                    f"{resolution.target}, which publishes via "
                    f"{event.label}() ({event.site_module}:"
                    f"{event.site_line}) with no os.fsync ordered "
                    "before it anywhere on the path; a crash can "
                    "commit an empty or truncated state file",
                )


# ---------------------------------------------------------------------
# RPR604 — await-interleaving race
# ---------------------------------------------------------------------

_RaceEvent = Tuple[str, int, str]  # ("await"|"mut", lineno, attr name)


def _self_store_attr(target: ast.expr) -> Optional[str]:
    """Attr name if *target* stores into ``self`` state, else ``None``.

    Covers plain attribute stores (``self.x = …``), container-slot
    stores (``self.x[k] = …``), and either buried in tuple/list
    unpacking targets.
    """
    if isinstance(target, ast.Attribute) and isinstance(
        target.value, ast.Name
    ) and target.value.id == "self":
        return target.attr
    if isinstance(target, ast.Subscript):
        value = target.value
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ) and value.value.id == "self":
            return value.attr
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            found = _self_store_attr(element)
            if found is not None:
                return found
    return None


def _direct_self_mutation(fn: FunctionInfo) -> bool:
    """Whether *fn*'s own body stores into ``self`` state."""
    for node in _body_nodes(fn.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if _self_store_attr(target) is not None:
                return True
    return False


def _mutates_self(
    analysis: Any, qname: str, stack: Optional[Set[str]] = None
) -> bool:
    """Whether method *qname* mutates instance state, transitively.

    Follows plain calls into same-class methods (the hierarchy already
    resolved them); seam methods (:data:`SINGLE_WRITER_SEAMS`) are
    excluded — mutation through the seam is the sanctioned pattern.
    Memoised per analysis; cycles conservatively report ``False`` for
    the back edge (the cycle entry still reports its own stores).
    """
    memo: Dict[str, bool] = analysis.mutation_memo
    cached = memo.get(qname)
    if cached is not None:
        return cached
    if stack is None:
        stack = set()
    if qname in stack:
        return False
    fn = analysis.symtab.functions.get(qname)
    if fn is None or fn.class_qname is None:
        memo[qname] = False
        return False
    if _direct_self_mutation(fn):
        memo[qname] = True
        return True
    stack.add(qname)
    result = False
    for _call, resolution in analysis.builder.resolve_calls(fn):
        if resolution.kind != "project" or resolution.spawn != KIND_CALL:
            continue
        target = analysis.symtab.functions.get(resolution.target)
        if target is None or target.class_qname != fn.class_qname:
            continue
        if target.name in SINGLE_WRITER_SEAMS:
            continue
        if _mutates_self(analysis, resolution.target, stack):
            result = True
            break
    stack.discard(qname)
    memo[qname] = result
    return result


class _RaceWalker:
    """CFG-lite evaluator for mutation/await interleaving.

    State is ``(mutated, awaited_after_mutation)`` booleans, ``None``
    for a dead branch. Branches merge by union (either path may run);
    loops iterate their body to a small fixpoint so a mutation late in
    iteration *n* followed by an await early in iteration *n+1* is
    seen. The walk stops at the first finding — one violation per
    function is enough signal.
    """

    def __init__(self, analysis: Any, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.context = analysis.symtab.contexts[fn.module]
        self.finding: Optional[Tuple[int, str]] = None

    # -- mutation classification --------------------------------------

    def _is_self_store(self, target: ast.expr) -> Optional[str]:
        """Attr name if *target* stores into ``self`` state."""
        return _self_store_attr(target)

    def _call_mutates(self, call: ast.Call) -> bool:
        """Whether *call* invokes a same-class method that mutates self."""
        fn = self.fn
        if fn.class_qname is None:
            return False
        resolution = self.analysis.builder.resolve_call(fn, call)
        if resolution.kind != "project" or resolution.spawn != KIND_CALL:
            return False
        target = self.analysis.symtab.functions.get(resolution.target)
        if target is None or target.class_qname != fn.class_qname:
            return False
        if target.name in SINGLE_WRITER_SEAMS:
            return False
        return _mutates_self(self.analysis, resolution.target)

    # -- expression event streams -------------------------------------

    def _expr_events(self, expr: ast.expr) -> List[_RaceEvent]:
        events: List[_RaceEvent] = []
        if isinstance(expr, ast.Lambda):
            return events
        if isinstance(expr, ast.Await):
            events.extend(self._expr_events(expr.value))
            if isinstance(expr.value, ast.Call) and self._call_mutates(
                expr.value
            ):
                events.append(("mut", expr.lineno, "<method>"))
            events.append(("await", expr.lineno, ""))
            return events
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                events.extend(self._expr_events(child))
        if isinstance(expr, ast.Call) and self._call_mutates(expr):
            events.append(("mut", expr.lineno, "<method>"))
        return events

    # -- state machine -------------------------------------------------

    def _apply(
        self,
        state: Optional[Tuple[bool, bool]],
        events: List[_RaceEvent],
    ) -> Optional[Tuple[bool, bool]]:
        if state is None:
            return None
        mutated, awaited = state
        for kind, lineno, name in events:
            if kind == "await":
                awaited = awaited or mutated
            else:
                if awaited and self.finding is None:
                    self.finding = (lineno, name)
                mutated = True
        return (mutated, awaited)

    @staticmethod
    def _merge(
        first: Optional[Tuple[bool, bool]],
        second: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        if first is None:
            return second
        if second is None:
            return first
        return (first[0] or second[0], first[1] or second[1])

    def _stmt_events(self, stmt: ast.stmt) -> List[_RaceEvent]:
        """Linear events of a non-branching statement."""
        events: List[_RaceEvent] = []
        if isinstance(stmt, ast.Assign):
            events.extend(self._expr_events(stmt.value))
            for target in stmt.targets:
                name = self._is_self_store(target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, ast.AugAssign):
            events.extend(self._expr_events(stmt.value))
            name = self._is_self_store(stmt.target)
            if name is not None:
                events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                events.extend(self._expr_events(stmt.value))
                name = self._is_self_store(stmt.target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                events.extend(self._expr_events(stmt.value))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                name = self._is_self_store(target)
                if name is not None:
                    events.append(("mut", stmt.lineno, name))
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    events.extend(self._expr_events(child))
        return events

    def _run_body(
        self,
        body: List[ast.stmt],
        state: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        for stmt in body:
            if state is None:
                return None
            state = self._run_stmt(stmt, state)
        return state

    def _run_stmt(
        self,
        stmt: ast.stmt,
        state: Optional[Tuple[bool, bool]],
    ) -> Optional[Tuple[bool, bool]]:
        if state is None:
            return None
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return state
        if isinstance(stmt, ast.Return):
            self._apply(state, self._stmt_events(stmt))
            return None
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.If):
            state = self._apply(state, self._expr_events(stmt.test))
            taken = self._run_body(stmt.body, state)
            skipped = self._run_body(stmt.orelse, state)
            return self._merge(taken, skipped)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head: List[_RaceEvent] = []
            if isinstance(stmt, ast.While):
                head = self._expr_events(stmt.test)
            else:
                head = self._expr_events(stmt.iter)
                if isinstance(stmt, ast.AsyncFor):
                    head.append(("await", stmt.lineno, ""))
            # Bounded fixpoint: run the body a few times so a mutation
            # at the bottom of one iteration meets an await at the top
            # of the next.
            merged = state
            for _ in range(4):
                loop_state = self._apply(merged, head)
                loop_state = self._run_body(stmt.body, loop_state)
                combined = self._merge(merged, loop_state)
                if combined == merged:
                    break
                merged = combined
            merged = self._apply(merged, head)  # final test/iter eval
            return self._run_body(stmt.orelse, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            events: List[_RaceEvent] = []
            for item in stmt.items:
                events.extend(self._expr_events(item.context_expr))
            if isinstance(stmt, ast.AsyncWith):
                events.append(("await", stmt.lineno, ""))
            state = self._apply(state, events)
            state = self._run_body(stmt.body, state)
            if isinstance(stmt, ast.AsyncWith):
                state = self._apply(
                    state, [("await", stmt.lineno, "")]
                )
            return state
        if isinstance(stmt, ast.Try):
            after_body = self._run_body(stmt.body, state)
            merged = after_body
            for handler in stmt.handlers:
                # An exception can fire anywhere in the body, so the
                # handler starts from the body-entry state too.
                handled = self._run_body(handler.body, state)
                merged = self._merge(merged, handled)
            merged = self._merge(
                merged, self._run_body(stmt.orelse, after_body)
            )
            return self._run_body(stmt.finalbody, merged)
        return self._apply(state, self._stmt_events(stmt))

    def run(self) -> Optional[Tuple[int, str]]:
        self._run_body(list(self.fn.node.body), (False, False))
        return self.finding


@register_flow(
    "RPR604",
    "await-interleaving-race",
    "service state mutated on both sides of an await outside the seam",
    scope=SCOPE_SERVICE,
    rationale=(
        "Every await is a point where another handler coroutine can run "
        "on the same event loop. An async service method that mutates "
        "shared instance state, awaits, then mutates again has published "
        "a half-updated view to whatever interleaves — the class of race "
        "the single-writer _handle seam exists to prevent. Calls through "
        "the seam are exempt; everything else should either mutate only "
        "before its first await or route the mutation through the seam."
    ),
)
def check_await_interleaving(analysis: Any) -> Iterator[Violation]:
    """Flag async service methods mutating self across an await."""
    symtab = analysis.symtab
    for qname in sorted(symtab.functions):
        fn = symtab.functions[qname]
        if not fn.is_async or fn.class_qname is None:
            continue
        if not symtab.contexts[fn.module].in_package("repro.service"):
            continue
        finding = _RaceWalker(analysis, fn).run()
        if finding is None:
            continue
        lineno, name = finding
        what = (
            "instance state (via a mutating method call)"
            if name == "<method>"
            else f"attribute 'self.{name}'"
        )
        yield _violation(
            analysis, fn, lineno, "RPR604",
            f"'async def {fn.name}' mutates {what} after an await that "
            "followed an earlier mutation; a concurrent handler can "
            "observe or clobber the half-updated state between the two "
            "writes — mutate only before the first await, or route the "
            "write through the single-writer _handle seam",
        )
