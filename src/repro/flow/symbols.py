"""Project symbol table: functions, classes, hierarchy, attribute types.

Built once per analysis run from a :class:`~repro.flow.program.Program`,
the table answers the questions the call-graph builder asks:

* **Which functions exist?** Every ``def``/``async def`` gets a
  qualified name: ``pkg.mod.func`` at module level,
  ``pkg.mod.Class.method`` inside a class, and
  ``outer.<locals>.inner`` for nested functions (CPython's own
  ``__qualname__`` convention), so nested executor helpers are distinct
  analysis scopes. Each module also gets one ``pkg.mod.<module>``
  scope for the code that runs at import: module statements, class
  bodies, decorators and defaults.
* **What does a dotted name mean here?** :meth:`SymbolTable.canonicalize`
  chases re-exports: ``repro.service.SchedulerService`` (imported from
  the package ``__init__``) resolves to
  ``repro.service.daemon.SchedulerService`` by following each module's
  import-alias map until a defined symbol is reached.
* **Which method does ``self.m()`` hit?** :meth:`SymbolTable.resolve_method`
  walks the class hierarchy (breadth-first over resolved project
  bases).
* **What type is ``self.attr``?** A light, deterministic inference:
  ``self.attr = ProjectClass(...)`` constructor assignments and
  ``self.attr = param`` where the parameter is annotated with a project
  class (``Optional[...]`` unwrapped) yield an attribute-type map per
  class, which is what lets ``self.durability.record_event(...)``
  resolve through :class:`~repro.durable.manager.DurabilityManager`.
  Conflicting assignments demote the attribute to unknown — a wrong
  edge is worse than a reported unresolved call.

Everything is collected in sorted order so two runs over the same tree
produce byte-identical tables, graphs, and reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.flow.program import Program
from repro.lint.context import ModuleContext

__all__ = ["FunctionInfo", "ClassInfo", "SymbolTable"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Name of the per-module scope holding the code run at import.
_MODULE_SCOPE = "<module>"


@dataclass
class FunctionInfo:
    """One project function or method, or a module's import-time scope."""

    qname: str
    module: str
    name: str
    path: str
    lineno: int
    is_async: bool
    class_qname: Optional[str]
    node: Union[FunctionNode, ast.Module] = field(repr=False, compare=False)
    #: Local name -> qname of functions visible by bare name from this
    #: function's body (its own nested defs plus the enclosing chain's).
    local_defs: Dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass
class ClassInfo:
    """One project class: bases, methods, inferred attribute types."""

    qname: str
    module: str
    name: str
    path: str
    lineno: int
    #: Base-class expressions as written (dotted where resolvable).
    bases_raw: Tuple[str, ...] = ()
    #: Resolved project base-class qnames (link phase).
    bases: Tuple[str, ...] = ()
    #: Method name -> function qname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Attribute name -> project class qname (light inference).
    attr_types: Dict[str, str] = field(default_factory=dict)


def _dotted(expr: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as a dotted string."""
    parts: List[str] = []
    cursor = expr
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


class SymbolTable:
    """Functions, classes, and name services of one program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.contexts: Dict[str, ModuleContext] = program.contexts
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._canon_cache: Dict[str, str] = {}
        for module_name in sorted(self.contexts):
            self._collect_module(module_name, self.contexts[module_name])
        self._link_classes()
        self._infer_attr_types()

    # -- collection ---------------------------------------------------

    def _collect_module(self, module: str, context: ModuleContext) -> None:
        scope = f"{module}.{_MODULE_SCOPE}"
        self.functions[scope] = FunctionInfo(
            qname=scope, module=module, name=_MODULE_SCOPE,
            path=context.path, lineno=1, is_async=False, class_qname=None,
            node=context.tree,
        )
        for node in context.tree.body:
            self._collect_node(node, module, context, prefix=module,
                               class_qname=None, enclosing=None)

    def _collect_node(
        self,
        node: ast.stmt,
        module: str,
        context: ModuleContext,
        prefix: str,
        class_qname: Optional[str],
        enclosing: Optional[FunctionInfo],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._collect_function(
                node, module, context, prefix, class_qname, enclosing
            )
        elif isinstance(node, ast.ClassDef):
            self._collect_class(node, module, context, prefix)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                               ast.While)):
            # Conditionally defined symbols (TYPE_CHECKING guards,
            # version shims) still exist for analysis purposes.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._collect_node(
                        child, module, context, prefix, class_qname, enclosing
                    )

    def _collect_function(
        self,
        node: FunctionNode,
        module: str,
        context: ModuleContext,
        prefix: str,
        class_qname: Optional[str],
        enclosing: Optional[FunctionInfo],
    ) -> None:
        qname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qname=qname,
            module=module,
            name=node.name,
            path=context.path,
            lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_qname=class_qname,
            node=node,
        )
        if enclosing is not None:
            info.local_defs.update(enclosing.local_defs)
        self.functions.setdefault(qname, info)
        if enclosing is not None:
            enclosing.local_defs[node.name] = qname
        nested_prefix = f"{qname}.<locals>"
        for child in node.body:
            self._collect_node(
                child, module, context, nested_prefix,
                class_qname=None, enclosing=info,
            )

    def _collect_class(
        self,
        node: ast.ClassDef,
        module: str,
        context: ModuleContext,
        prefix: str,
    ) -> None:
        qname = f"{prefix}.{node.name}"
        bases_raw: List[str] = []
        for base in node.bases:
            rendered = _dotted(base)
            if rendered is not None:
                bases_raw.append(rendered)
        info = ClassInfo(
            qname=qname,
            module=module,
            name=node.name,
            path=context.path,
            lineno=node.lineno,
            bases_raw=tuple(bases_raw),
        )
        self.classes.setdefault(qname, info)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(
                    child, module, context, qname,
                    class_qname=qname, enclosing=None,
                )
                info.methods.setdefault(child.name, f"{qname}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                self._collect_class(child, module, context, qname)

    # -- linking ------------------------------------------------------

    def _link_classes(self) -> None:
        for qname in sorted(self.classes):
            info = self.classes[qname]
            context = self.contexts[info.module]
            resolved: List[str] = []
            for raw in info.bases_raw:
                base = self._resolve_base(raw, info.module, context)
                if base is not None:
                    resolved.append(base)
            info.bases = tuple(resolved)

    def _resolve_base(
        self, raw: str, module: str, context: ModuleContext
    ) -> Optional[str]:
        """Project class qname of one base expression, or ``None``."""
        # A sibling class in the same module shadows everything else.
        local = f"{module}.{raw}"
        if local in self.classes:
            return local
        head = raw.split(".", 1)[0]
        origin = context.aliases.get(head)
        if origin is not None:
            dotted = origin + raw[len(head):]
            canonical = self.canonicalize(dotted)
            if canonical in self.classes:
                return canonical
        canonical = self.canonicalize(raw)
        return canonical if canonical in self.classes else None

    # -- canonical names ----------------------------------------------

    def canonicalize(self, dotted: str) -> str:
        """Chase re-exports until *dotted* names a defined symbol.

        ``repro.service.SchedulerService.recover`` follows the package
        ``__init__``'s ``from repro.service.daemon import ...`` to
        ``repro.service.daemon.SchedulerService.recover``. Names that
        never land on a defined symbol are returned as deeply resolved
        as possible (callers then treat them as external).
        """
        cached = self._canon_cache.get(dotted)
        if cached is not None:
            return cached
        seen = {dotted}
        current = dotted
        while True:
            if current in self.functions or current in self.classes:
                break
            step = self._canonical_step(current)
            if step is None or step in seen:
                break
            seen.add(step)
            current = step
        self._canon_cache[dotted] = current
        return current

    def _canonical_step(self, dotted: str) -> Optional[str]:
        """One re-export hop: rewrite the head attr via module aliases."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.contexts:
                continue
            attrs = parts[cut:]
            origin = self.contexts[prefix].aliases.get(attrs[0])
            if origin is None:
                return None
            return ".".join([origin] + attrs[1:])
        return None

    # -- hierarchy ----------------------------------------------------

    def resolve_method(
        self, class_qname: str, method: str
    ) -> Optional[str]:
        """Function qname of *method* on *class_qname* (MRO-ish BFS)."""
        queue = [class_qname]
        seen = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.methods.get(method)
            if found is not None:
                return found
            queue.extend(info.bases)
        return None

    def attr_type(self, class_qname: str, attr: str) -> Optional[str]:
        """Inferred project class of ``self.<attr>`` on *class_qname*."""
        queue = [class_qname]
        seen = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.attr_types.get(attr)
            if found is not None:
                return found or None
            queue.extend(info.bases)
        return None

    # -- attribute-type inference -------------------------------------

    def _infer_attr_types(self) -> None:
        for qname in sorted(self.classes):
            info = self.classes[qname]
            context = self.contexts[info.module]
            for method_name in sorted(info.methods):
                method = self.functions.get(info.methods[method_name])
                if method is None:
                    continue
                self._infer_from_method(info, method, context)

    def _infer_from_method(
        self,
        klass: ClassInfo,
        method: FunctionInfo,
        context: ModuleContext,
    ) -> None:
        params = self._annotated_params(method.node, context)
        for stmt in ast.walk(method.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            inferred = ""
            if isinstance(stmt, ast.AnnAssign):
                inferred = self._annotation_class(stmt.annotation, context)
            if not inferred and isinstance(value, ast.Call):
                resolved = context.resolve(value.func)
                if resolved is not None:
                    canonical = self.canonicalize(resolved)
                    if canonical in self.classes:
                        inferred = canonical
            if not inferred and isinstance(value, ast.Name):
                inferred = params.get(value.id, "")
            if not inferred:
                continue
            known = klass.attr_types.get(target.attr)
            if known is None:
                klass.attr_types[target.attr] = inferred
            elif known != inferred:
                # Conflicting evidence: demote to unknown, loudly-ish
                # (the empty string blocks base-class lookup too).
                klass.attr_types[target.attr] = ""

    def _annotated_params(
        self, node: Union[FunctionNode, ast.Module], context: ModuleContext
    ) -> Dict[str, str]:
        """Parameter name -> project class qname, from annotations."""
        result: Dict[str, str] = {}
        if isinstance(node, ast.Module):
            return result
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            if arg.annotation is None:
                continue
            inferred = self._annotation_class(arg.annotation, context)
            if inferred:
                result[arg.arg] = inferred
        return result

    def _annotation_class(
        self, annotation: ast.expr, context: ModuleContext
    ) -> str:
        """Project class named by an annotation (Optional unwrapped)."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(
                    annotation.value, mode="eval"
                ).body
            except SyntaxError:
                return ""
        if isinstance(annotation, ast.Subscript):
            base = context.resolve(annotation.value)
            if base in ("typing.Optional", "Optional"):
                return self._annotation_class(annotation.slice, context)
            return ""
        resolved = context.resolve(annotation)
        if resolved is None and isinstance(annotation, ast.Name):
            # A class defined in this very module is a bound name, which
            # resolve() declines; try the module-local spelling.
            local = f"{context.module}.{annotation.id}"
            if local in self.classes:
                return local
            return ""
        if resolved is None:
            return ""
        canonical = self.canonicalize(resolved)
        return canonical if canonical in self.classes else ""
