"""Project call graph: who calls whom, and how.

The builder walks every project function body **in source order**
(skipping nested ``def`` bodies — those are their own analysis scopes)
and resolves each call expression to one of:

* a **project edge** — caller → callee qname, with a *kind*:
  ``call`` (plain synchronous/awaited invocation), ``task``
  (``asyncio.create_task`` / ``ensure_future`` / ``asyncio.run`` /
  ``loop.create_task`` — the callee runs concurrently on the loop), or
  ``executor`` (``asyncio.to_thread`` / ``run_in_executor`` — the
  callee runs on a worker thread, where blocking is sanctioned);
* an **external call** — a dotted name resolved outside the project
  (``time.time``, ``os.fsync``, ``json.dumps``). The subset the flow
  rules care about is categorised into *primitive calls*: ``clock``,
  ``entropy`` and ``rng`` (RPR601's sources; a seeded RNG constructor
  is not one) and ``blocking`` (RPR602's). The tables below are the
  only copy of these lists;
* an **unresolved call** — a genuinely dynamic target (method on a
  local variable, call through a callable parameter). These are
  recorded, counted, and exported — never silently dropped — because
  an unresolved call is exactly where a whole-program guarantee has a
  hole the reader should know about.

Resolution order for a call expression, most-specific first: nested
functions visible by bare name → sibling module-level symbols →
import-alias resolution (through re-exports, via
:meth:`~repro.flow.symbols.SymbolTable.canonicalize`) →
``self.method()`` / ``cls.method()`` through the class hierarchy →
``self.attr.method()`` through inferred attribute types.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.flow.symbols import FunctionInfo, SymbolTable

__all__ = [
    "BLOCKING_CALLS",
    "CLOCK_CALLS",
    "ENTROPY_CALLS",
    "KIND_CALL",
    "KIND_TASK",
    "KIND_EXECUTOR",
    "CallEdge",
    "ExternalCall",
    "PrimitiveCall",
    "UnresolvedCall",
    "Resolution",
    "CallGraph",
    "GraphBuilder",
    "iter_body_calls",
]

KIND_CALL = "call"
KIND_TASK = "task"
KIND_EXECUTOR = "executor"

#: ``asyncio`` module-level spawners whose first argument is the spawned
#: coroutine (or coroutine-producing call).
_TASK_SPAWNERS = ("asyncio.create_task", "asyncio.ensure_future",
                  "asyncio.run")
_THREAD_SPAWNERS = ("asyncio.to_thread",)

#: Dotted call targets that read a clock.
CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Dotted call targets that read OS entropy or host-unique state.
ENTROPY_CALLS: Tuple[str, ...] = (
    "os.urandom",
    "os.getrandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: ``numpy.random`` constructors that are fine *when seeded*.
_NUMPY_SEEDABLE: Tuple[str, ...] = (
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
)

#: Dotted call targets that block the event loop.
BLOCKING_CALLS: Tuple[str, ...] = (
    "time.sleep",
    "open",
    "io.open",
    "os.system",
    "os.popen",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
)


@dataclass(frozen=True, order=True)
class CallEdge:
    """One resolved project-internal call."""

    caller: str
    callee: str
    lineno: int
    kind: str


@dataclass(frozen=True, order=True)
class ExternalCall:
    """A call resolved to a dotted name outside the project."""

    caller: str
    target: str
    lineno: int


@dataclass(frozen=True, order=True)
class PrimitiveCall:
    """An external call the flow rules reason about."""

    caller: str
    target: str
    lineno: int
    category: str  # clock | entropy | rng | blocking


@dataclass(frozen=True, order=True)
class UnresolvedCall:
    """A call whose target could not be determined statically."""

    caller: str
    display: str
    lineno: int


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one call expression."""

    kind: str  # "project" | "external" | "unresolved"
    target: str  # qname, dotted name, or display text
    spawn: str = KIND_CALL


def iter_body_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions executed directly by *node*'s body, in order.

    Nested ``def``/``async def`` bodies are skipped — each is its own
    analysis scope (its calls belong to *its* graph node) — but their
    decorators and defaults run here, as does a nested class body.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for expr in (*child.decorator_list, *child.args.defaults,
                         *child.args.kw_defaults):
                if expr is not None:
                    if isinstance(expr, ast.Call):
                        yield expr
                    yield from iter_body_calls(expr)
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from iter_body_calls(child)


def _display(expr: ast.expr) -> str:
    """Best-effort source-ish rendering of a call target for reports."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f"{_display(expr.value)}.{expr.attr}"
    if isinstance(expr, ast.Call):
        return f"{_display(expr.func)}(...)"
    if isinstance(expr, ast.Subscript):
        return f"{_display(expr.value)}[...]"
    return f"<{type(expr).__name__}>"


def _is_unseeded(node: ast.Call) -> bool:
    """No arguments, or an explicit literal ``None`` seed."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for keyword in node.keywords:
        if keyword.arg == "seed" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is None
    return False


def _primitive_categories(dotted: str, call: ast.Call) -> List[str]:
    """Flow-rule categories of an external call (possibly several).

    Global-state ``random``/``numpy.random`` APIs, ``SystemRandom`` and
    seedable constructors called without a seed are ``rng``.
    """
    categories: List[str] = []
    if dotted in CLOCK_CALLS:
        categories.append("clock")
    if dotted in ENTROPY_CALLS:
        categories.append("entropy")
    if dotted == "random.SystemRandom":
        categories.append("rng")
    elif dotted == "random.Random":
        if _is_unseeded(call):
            categories.append("rng")
    elif dotted.startswith("random."):
        categories.append("rng")
    elif dotted.startswith("numpy.random."):
        tail = dotted[len("numpy.random."):]
        if tail in _NUMPY_SEEDABLE:
            if _is_unseeded(call):
                categories.append("rng")
        else:
            categories.append("rng")
    if dotted in BLOCKING_CALLS:
        categories.append("blocking")
    return categories


class CallGraph:
    """The finished, indexed graph."""

    def __init__(
        self,
        edges: List[CallEdge],
        external: List[ExternalCall],
        primitives: List[PrimitiveCall],
        unresolved: List[UnresolvedCall],
    ) -> None:
        self.edges: List[CallEdge] = sorted(edges)
        self.external: List[ExternalCall] = sorted(external)
        self.primitives: List[PrimitiveCall] = sorted(primitives)
        self.unresolved: List[UnresolvedCall] = sorted(unresolved)
        self.by_caller: Dict[str, List[CallEdge]] = {}
        self.by_callee: Dict[str, List[CallEdge]] = {}
        for edge in self.edges:
            self.by_caller.setdefault(edge.caller, []).append(edge)
            self.by_callee.setdefault(edge.callee, []).append(edge)
        self.primitives_by_caller: Dict[str, List[PrimitiveCall]] = {}
        for primitive in self.primitives:
            self.primitives_by_caller.setdefault(
                primitive.caller, []
            ).append(primitive)

    def callees(self, qname: str) -> List[CallEdge]:
        """Outgoing edges of *qname* (sorted, possibly empty)."""
        return self.by_caller.get(qname, [])

    def callers(self, qname: str) -> List[CallEdge]:
        """Incoming edges of *qname* (sorted, possibly empty)."""
        return self.by_callee.get(qname, [])


class GraphBuilder:
    """Builds a :class:`CallGraph` over a symbol table's functions."""

    def __init__(self, symtab: SymbolTable) -> None:
        self.symtab = symtab

    # -- single-call resolution ---------------------------------------

    def resolve_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Resolution:
        """Resolve one call expression in *fn*'s body.

        Also reused by the ordered-event (RPR603) pass, which needs the
        same resolution logic interleaved with its own event stream.
        """
        spawned = self._resolve_spawn(fn, call)
        if spawned is not None:
            return spawned[0]
        return self._resolve_plain(fn, call.func)

    def resolve_calls(
        self, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.Call, Resolution]]:
        """Resolve every call in *fn*'s body, in source order.

        Spawn wrappers consume their inner call expression —
        ``asyncio.create_task(self.worker())`` is one ``task`` edge to
        ``worker``, not a task edge plus a phantom synchronous call
        (the inner call builds a coroutine object; the body runs in the
        spawned task). The inner call's *argument* expressions still
        resolve normally — those do evaluate inline.
        """
        consumed: Set[int] = set()
        for call in iter_body_calls(fn.node):
            if id(call) in consumed:
                continue
            spawned = self._resolve_spawn(fn, call)
            if spawned is not None:
                resolution, inner = spawned
                if inner is not None:
                    consumed.add(id(inner))
                yield call, resolution
            else:
                yield call, self._resolve_plain(fn, call.func)

    def _resolve_spawn(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[Tuple[Resolution, Optional[ast.Call]]]:
        """Handle asyncio task/executor spawn wrappers.

        Returns ``(resolution, inner_call)`` where *inner_call* is the
        coroutine-building call expression the wrapper consumed (for
        deduplication), or ``None`` for a non-spawn call.
        """
        context = self.symtab.contexts[fn.module]
        resolved = context.resolve(call.func)
        kind: Optional[str] = None
        target_expr: Optional[ast.expr] = None
        if resolved in _TASK_SPAWNERS and call.args:
            kind, target_expr = KIND_TASK, call.args[0]
        elif resolved in _THREAD_SPAWNERS and call.args:
            kind, target_expr = KIND_EXECUTOR, call.args[0]
        elif resolved is None and isinstance(call.func, ast.Attribute):
            # loop.create_task(coro()) / loop.run_in_executor(None, fn, …)
            if call.func.attr == "create_task" and call.args:
                kind, target_expr = KIND_TASK, call.args[0]
            elif call.func.attr == "run_in_executor" and len(call.args) >= 2:
                kind, target_expr = KIND_EXECUTOR, call.args[1]
        if kind is None or target_expr is None:
            return None
        # create_task(self._run()) spawns the *coroutine function*; the
        # inner Call builds a coroutine object, it does not run the body
        # synchronously, so the spawned callee is the inner call's func.
        inner_call: Optional[ast.Call] = None
        if isinstance(target_expr, ast.Call):
            inner_call = target_expr
            target_expr = target_expr.func
        inner = self._resolve_plain(fn, target_expr)
        resolution = Resolution(
            kind=inner.kind, target=inner.target, spawn=kind
        )
        return resolution, inner_call

    def _resolve_plain(
        self, fn: FunctionInfo, func: ast.expr
    ) -> Resolution:
        symtab = self.symtab
        context = symtab.contexts[fn.module]
        # 1. Nested functions visible by bare name.
        if isinstance(func, ast.Name):
            local = fn.local_defs.get(func.id)
            if local is not None:
                return Resolution("project", local)
            # 2. Sibling module-level symbols (bound names, so the
            #    module alias map declines them).
            sibling = f"{fn.module}.{func.id}"
            if sibling in symtab.functions:
                return Resolution("project", sibling)
            if sibling in symtab.classes:
                return self._constructor(sibling)
        # 3. Import-alias resolution, chased through re-exports.
        resolved = context.resolve(func)
        if resolved is not None:
            canonical = symtab.canonicalize(resolved)
            if canonical in symtab.functions:
                return Resolution("project", canonical)
            if canonical in symtab.classes:
                return self._constructor(canonical)
            return Resolution("external", canonical)
        # 4. self.method() / cls.method() through the hierarchy.
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and fn.class_qname is not None
            ):
                method = symtab.resolve_method(fn.class_qname, func.attr)
                if method is not None:
                    return Resolution("project", method)
                return Resolution(
                    "unresolved", f"{receiver.id}.{func.attr}"
                )
            # 5. self.attr.method() through inferred attribute types.
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and fn.class_qname is not None
            ):
                attr_class = symtab.attr_type(
                    fn.class_qname, receiver.attr
                )
                if attr_class is not None:
                    method = symtab.resolve_method(attr_class, func.attr)
                    if method is not None:
                        return Resolution("project", method)
        return Resolution("unresolved", _display(func))

    def _constructor(self, class_qname: str) -> Resolution:
        """Edge target for instantiating a project class."""
        init = self.symtab.resolve_method(class_qname, "__init__")
        if init is not None and init in self.symtab.functions:
            return Resolution("project", init)
        # Default/dataclass-generated constructor: no project body runs.
        return Resolution("external", class_qname)

    # -- whole-graph build --------------------------------------------

    def build(self) -> CallGraph:
        """Resolve every call in every project function into the graph."""
        edges: List[CallEdge] = []
        external: List[ExternalCall] = []
        primitives: List[PrimitiveCall] = []
        unresolved: List[UnresolvedCall] = []
        for qname in sorted(self.symtab.functions):
            fn = self.symtab.functions[qname]
            for call, resolution in self.resolve_calls(fn):
                lineno = call.lineno
                if resolution.kind == "project":
                    edges.append(
                        CallEdge(qname, resolution.target, lineno,
                                 resolution.spawn)
                    )
                elif resolution.kind == "external":
                    external.append(
                        ExternalCall(qname, resolution.target, lineno)
                    )
                    if resolution.spawn != KIND_CALL:
                        continue  # dispatched, not called here
                    for category in _primitive_categories(
                        resolution.target, call
                    ):
                        primitives.append(
                            PrimitiveCall(qname, resolution.target,
                                          lineno, category)
                        )
                else:
                    unresolved.append(
                        UnresolvedCall(qname, resolution.target, lineno)
                    )
        return CallGraph(edges, external, primitives, unresolved)
