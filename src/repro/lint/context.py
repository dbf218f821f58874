"""Per-module analysis context shared by every rule.

A :class:`ModuleContext` wraps one parsed source file with the services
rules need and should not each reimplement:

* **Name resolution** — a module-wide alias map built from ``import`` /
  ``from … import`` statements lets rules ask "what dotted name does
  this call target?" (:meth:`ModuleContext.resolve_call`). ``import
  numpy as np`` + ``np.random.default_rng(...)`` resolves to
  ``numpy.random.default_rng``; ``from time import perf_counter`` +
  ``perf_counter()`` resolves to ``time.perf_counter``. Resolution is
  intentionally *module-syntactic*: it does not chase assignments or
  runtime values, which keeps rules predictable and fast.
* **Package classification** — the module's dotted name (derived from
  its ``src/`` layout path, or passed explicitly by tests) and the
  :data:`SIM_CORE_PACKAGES` policy list, so scoped rules know whether
  they apply without hard-coding paths.
* **Source access** — raw lines for violation fingerprints.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["SIM_CORE_PACKAGES", "ModuleContext", "module_name_for_path"]

#: Packages whose results must be bit-reproducible from seeds — the
#: paper's two-phase methodology regenerates every table from these, so
#: the determinism rules (RPR1xx) apply here and only here. Wall-clock
#: and OS entropy stay legal elsewhere (``repro.jobs`` measures real
#: wall time for timeouts; ``repro.telemetry`` timestamps spans) — that
#: allowlist is expressed by this package list, not by ``noqa``.
SIM_CORE_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.cache",
    "repro.perf",
    "repro.sched",
    "repro.alloc",
    "repro.virt",
    "repro.workloads",
    "repro.utils",
    "repro.estimate",
    "repro.adversary",
)


def module_name_for_path(path: Union[str, Path]) -> Optional[str]:
    """Derive a dotted module name from a ``src/``-layout file path.

    ``.../src/repro/perf/simulator.py`` → ``repro.perf.simulator``;
    ``__init__.py`` maps to its package. Paths outside a ``src/`` tree
    (tests, scripts, fixtures) return ``None`` — they belong to no
    package and only package-agnostic rules apply to them.
    """
    parts = Path(path).parts
    try:
        anchor = len(parts) - 1 - parts[::-1].index("src")
    except ValueError:
        return None
    rel = parts[anchor + 1:]
    if not rel or not rel[-1].endswith(".py"):
        return None
    pieces: List[str] = list(rel[:-1])
    stem = rel[-1][: -len(".py")]
    if stem != "__init__":
        pieces.append(stem)
    return ".".join(pieces) if pieces else None


class ModuleContext:
    """One parsed module plus the name/package services rules consume.

    Parameters
    ----------
    path:
        Display path used in violations (kept as given, posix-style).
    source:
        Full module source text.
    module:
        Dotted module name; defaults to deriving it from *path* via
        :func:`module_name_for_path`. Tests pass explicit names to lint
        fixture snippets *as if* they lived in a given package.
    """

    def __init__(
        self,
        path: Union[str, Path],
        source: str,
        module: Optional[str] = None,
    ) -> None:
        self.path = Path(path).as_posix()
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=self.path)
        self.module = (
            module if module is not None else module_name_for_path(self.path)
        )
        self._aliases: Optional[Dict[str, str]] = None
        self._bound_names: Optional[frozenset] = None

    # -- package classification -------------------------------------

    def in_package(self, prefix: str) -> bool:
        """Whether this module is *prefix* or lives under it."""
        if self.module is None:
            return False
        return self.module == prefix or self.module.startswith(prefix + ".")

    @property
    def is_sim_core(self) -> bool:
        """Whether the determinism contract applies to this module."""
        return any(self.in_package(pkg) for pkg in SIM_CORE_PACKAGES)

    # -- name resolution ---------------------------------------------

    @property
    def aliases(self) -> Dict[str, str]:
        """Local name → dotted origin, from every import in the module."""
        if self._aliases is None:
            self._aliases = self._build_aliases()
        return self._aliases

    def _build_aliases(self) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        package = ""
        if self.module is not None:
            package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    origin = alias.name if alias.asname else local
                    aliases[local] = origin
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: anchor at this module's package.
                    hops = package.split(".") if package else []
                    hops = hops[: max(0, len(hops) - (node.level - 1))]
                    base = ".".join(hops + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{base}.{alias.name}" if base else alias.name
        return aliases

    @property
    def bound_names(self) -> frozenset:
        """Every name the module binds (assignments, defs, imports).

        Used to avoid flagging shadowed builtins — a module that defines
        its own ``hash`` is not calling the randomised builtin.
        """
        if self._bound_names is None:
            bound = set(self.aliases)
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    bound.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    bound.add(node.id)
                elif isinstance(node, ast.arg):
                    bound.add(node.arg)
            self._bound_names = frozenset(bound)
        return self._bound_names

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a ``Name``/``Attribute`` chain, or ``None``.

        ``np.random.default_rng`` (with ``import numpy as np``) resolves
        to ``numpy.random.default_rng``. Chains whose base is not a
        plain imported name (calls, subscripts, locals) resolve to
        ``None`` — rules treat that as "not the thing I ban".
        """
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        origin = self.aliases.get(cursor.id)
        if origin is None:
            # Unimported bare name: resolvable only when unshadowed, as
            # itself (covers builtins such as ``hash``).
            if parts or cursor.id in self.bound_names:
                return None
            return cursor.id
        parts.append(origin)
        return ".".join(reversed(parts))

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Dotted origin of a call's target (see :meth:`resolve`)."""
        return self.resolve(node.func)

    # -- source access -----------------------------------------------

    def source_line(self, lineno: int) -> str:
        """The stripped source text of 1-based *lineno* (fingerprint)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
