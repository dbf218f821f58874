"""The whole-program view: every loaded module of one analysis run.

A :class:`Program` wraps the :class:`~repro.lint.engine.LoadedModule`
list produced by :func:`~repro.lint.engine.load_modules` (parse-once:
the same parsed ASTs feed the per-file rules and the flow passes) and
indexes every file that parses by a dotted name: the one derived from
its ``src/`` layout path, or assigned explicitly by tests via
:meth:`Program.from_sources`.

Files outside a ``src/`` tree (tests, scripts, benchmarks) are named
after their path (``scripts/run_lint.py`` is ``scripts.run_lint``).
They join the analysis, so the depth-0 checks that apply to every file
see them, but their context keeps no package, so no package-scoped
pass treats them as part of the shipped tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from pathlib import Path

from repro.lint.context import ModuleContext
from repro.lint.engine import (
    DEFAULT_EXCLUDED_PARTS,
    LoadedModule,
    load_modules,
)
from repro.lint.suppress import SuppressionIndex

__all__ = ["Program", "load_program"]


def _path_name(display: str) -> str:
    """Dotted name of a file outside any package: its path, dotted."""
    parts = [p for p in Path(display).with_suffix("").parts if p != "/"]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Program:
    """All loaded modules of one run, with the project subset indexed."""

    def __init__(self, modules: Sequence[LoadedModule]) -> None:
        self.modules: List[LoadedModule] = sorted(
            modules, key=lambda m: m.display
        )
        #: Dotted module name -> loaded module, for files that parse.
        #: Later duplicates (the same dotted name loaded twice) are
        #: rejected deterministically: first display path wins, which
        #: keeps re-runs byte-identical.
        self.by_module: Dict[str, LoadedModule] = {}
        #: Display path -> loaded module, for suppression lookup.
        self.by_path: Dict[str, LoadedModule] = {}
        for module in self.modules:
            self.by_path.setdefault(module.display, module)
            context = module.context
            if context is not None:
                name = context.module or _path_name(module.display)
                self.by_module.setdefault(name, module)

    @property
    def contexts(self) -> Dict[str, ModuleContext]:
        """Dotted module name -> parsed context (every parsed file)."""
        result: Dict[str, ModuleContext] = {}
        for name, module in self.by_module.items():
            assert module.context is not None
            result[name] = module.context
        return result

    def suppressions_for(self, path: str) -> Optional[SuppressionIndex]:
        """The suppression index of *path*, or ``None`` if unknown."""
        module = self.by_path.get(path)
        return None if module is None else module.suppressions

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[Tuple[str, str, Optional[str]]],
    ) -> "Program":
        """Build a program from ``(path, source, module)`` triples.

        The test entry point: fixture files live outside ``src/`` but
        are analysed *as if* they formed a package tree by passing
        explicit dotted names.
        """
        return cls(
            [
                LoadedModule.parse(path, source, module=module)
                for path, source, module in sources
            ]
        )


def load_program(
    paths: Sequence[Union[str, Path]],
    excluded_parts: Sequence[str] = DEFAULT_EXCLUDED_PARTS,
    root: Optional[Union[str, Path]] = None,
) -> Program:
    """Discover and parse *paths* into a :class:`Program` (parse-once)."""
    return Program(load_modules(paths, excluded_parts, root=root))
