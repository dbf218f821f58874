"""RPR2xx — durability and robustness rules.

The robustness layer's contract (docs/robustness.md): a crash may cost
recomputation but must never corrupt a result, and a fault must never
be swallowed invisibly. Two syntactic patterns carry most of that
contract, so they are enforced here:

* **Publish-after-fsync** — ``os.replace`` is the commit point of an
  atomic write (in the tree, only :func:`repro.fileio.publish`, which
  every durable store shares). Without an ``os.fsync`` before it, a
  power loss after the rename can surface a committed-but-empty file —
  the exact torn state the protocol exists to rule out.
* **No silent swallowing** — a bare ``except:`` (RPR202) or a broad
  ``except Exception:`` whose body neither re-raises, nor logs, nor
  even reads the exception (RPR203) turns faults into silence. Sink
  isolation (event sinks, telemetry exporters) is allowed to drop
  exceptions *by design* and is allowlisted by module.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_ALL, register
from repro.lint.violation import Violation

__all__ = ["SINK_ISOLATION_MODULES"]

#: Modules whose job is to isolate misbehaving plug-ins: a raising sink
#: must be dropped, not propagated, so RPR203 does not apply. (They log
#: anyway today, but the allowlist keeps the *contract* explicit.)
SINK_ISOLATION_MODULES: Tuple[str, ...] = (
    "repro.jobs.events",
    "repro.telemetry.exporters",
)

#: Broad exception type names for RPR203.
_BROAD = ("Exception", "BaseException")

#: Call names/attributes that count as "the handler reported the fault".
_LOG_ATTRS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical",
     "log", "print"}
)


def _violation(
    module: ModuleContext, node: ast.AST, code: str, message: str
) -> Violation:
    lineno = getattr(node, "lineno", 1)
    return Violation(
        path=module.path,
        line=lineno,
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
        source=module.source_line(lineno),
    )


def _direct_calls(
    function: ast.AST, module: ModuleContext
) -> Tuple[List[int], List[int]]:
    """``(fsync_lines, replace_lines)`` called directly by *function*.

    Nested ``def``/``class`` bodies are skipped — they are analysed as
    their own scopes, so an outer fsync never excuses an inner replace
    (or vice versa).
    """
    fsyncs: List[int] = []
    replaces: List[int] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, ast.Call):
                resolved = module.resolve_call(child)
                if resolved == "os.fsync":
                    fsyncs.append(child.lineno)
                elif resolved == "os.replace":
                    replaces.append(child.lineno)
            visit(child)

    visit(function)
    return fsyncs, replaces


@register(
    "RPR201",
    "replace-without-fsync",
    "os.replace without a preceding os.fsync in the same function",
    scope=SCOPE_ALL,
    rationale=(
        "os.replace publishes a file atomically, but only fsync-then-"
        "replace makes the publish durable: without the fsync a power "
        "loss can expose a committed-but-empty entry."
    ),
)
def check_replace_without_fsync(module: ModuleContext) -> Iterator[Violation]:
    """Flag os.replace publishes with no earlier os.fsync in scope."""
    scopes = [
        node
        for node in ast.walk(module.tree)
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
        )
    ]
    for scope in scopes:
        fsync_lines, replace_lines = _direct_calls(scope, module)
        first_fsync = min(fsync_lines) if fsync_lines else None
        for replace_line in replace_lines:
            if first_fsync is None or first_fsync > replace_line:
                yield Violation(
                    path=module.path,
                    line=replace_line,
                    col=1,
                    code="RPR201",
                    message=(
                        "os.replace publishes without a preceding os.fsync "
                        "in this function; a crash can expose a torn or "
                        "empty committed file (write-tmp, flush, fsync, "
                        "then replace)"
                    ),
                    source=module.source_line(replace_line),
                )


def _handler_swallows(
    handler: ast.ExceptHandler, module: ModuleContext
) -> bool:
    """True when the handler neither re-raises, logs, nor reads ``exc``."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _LOG_ATTRS:
                return False
            if isinstance(func, ast.Name) and func.id in _LOG_ATTRS:
                return False
        if (
            handler.name is not None
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return False
    return True


def _broad_names(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad type name this handler catches, if any."""
    nodes: List[ast.expr] = []
    if handler.type is None:
        return None
    if isinstance(handler.type, ast.Tuple):
        nodes = list(handler.type.elts)
    else:
        nodes = [handler.type]
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD:
            return node.id
    return None


@register(
    "RPR202",
    "bare-except",
    "bare 'except:' clause",
    scope=SCOPE_ALL,
    rationale=(
        "A bare except catches KeyboardInterrupt and SystemExit too, "
        "making sweeps unkillable and hiding worker shutdown; name the "
        "exception types (BaseException, if truly everything, and re-raise)."
    ),
)
def check_bare_except(module: ModuleContext) -> Iterator[Violation]:
    """Flag ``except:`` with no exception type."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield _violation(
                module, node, "RPR202",
                "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                "catch explicit exception types",
            )


@register(
    "RPR203",
    "swallowed-broad-except",
    "broad except that swallows without logging or re-raising",
    scope=SCOPE_ALL,
    rationale=(
        "except Exception with a body that neither re-raises, logs, nor "
        "reads the exception converts faults into silence — the opposite "
        "of the graceful-degradation contract, which demands every "
        "degradation leave a structured trace."
    ),
)
def check_swallowed_broad_except(
    module: ModuleContext,
) -> Iterator[Violation]:
    """Flag broad handlers that drop the fault invisibly."""
    if module.module in SINK_ISOLATION_MODULES:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_names(node)
        if broad is None:
            continue
        if _handler_swallows(node, module):
            yield _violation(
                module, node, "RPR203",
                f"'except {broad}' swallows the fault silently (no raise, "
                "no log, exception unread); log it or narrow the type",
            )
