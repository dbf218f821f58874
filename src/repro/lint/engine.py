"""The lint engine: file discovery, rule dispatch, suppression filtering.

One :func:`lint_paths` call is one lint run: discover ``.py`` files,
parse each once into a :class:`~repro.lint.context.ModuleContext`, run
every registered per-file rule whose scope covers the module and every
whole-program flow pass (:mod:`repro.flow`, the RPR6xx family) over the
same parse, drop violations waived by ``# repro: noqa[...]`` comments,
and return the sorted remainder in a :class:`LintResult`, together with
the run's flow analysis (its call graph feeds the exporters). Baseline
filtering is deliberately *not* done here — the CLI layer owns the
baseline so programmatic users (tests, the self-check) always see the
full picture.

Parse-once sharing: :func:`load_modules` materialises the tree as
:class:`LoadedModule` objects (parsed context + lazily built
suppression index) that both the per-file rules and the flow analyser
consume, so a run parses each file exactly once.

Unparseable files are reported as ``RPR001`` violations rather than
crashing the run: a syntax error in one file must not hide violations
in the other two hundred.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.lint.context import ModuleContext
from repro.lint.registry import FlowRule, Rule, all_flow_rules, all_rules
from repro.lint.suppress import SuppressionIndex
from repro.lint.violation import Violation

if TYPE_CHECKING:
    from repro.flow.engine import FlowResult

__all__ = ["PARSE_ERROR_CODE", "DEFAULT_EXCLUDED_PARTS", "LintResult",
           "LoadedModule", "iter_source_files", "load_modules",
           "lint_modules", "lint_source", "lint_paths"]

#: A rule from either registry: ``rules=`` picks from one catalogue.
AnyRule = Union[Rule, FlowRule]

#: Reported when a file cannot be parsed at all.
PARSE_ERROR_CODE = "RPR001"

#: Path fragments skipped during directory discovery. Fixture snippets
#: contain violations *on purpose* (they are the rule tests' inputs) and
#: must not fail a whole-tree run; explicitly named files still lint.
DEFAULT_EXCLUDED_PARTS: Tuple[str, ...] = (
    "tests/lint/fixtures",
    "tests/flow/fixtures",
    "__pycache__",
    ".git",
)


class LoadedModule:
    """One discovered file: parsed context, or the parse-error violation.

    The unit of the parse-once contract: a tree is loaded into these
    exactly once per run, then every consumer — the per-file rules, the
    whole-program flow passes, the suppression filter — works off the
    same parsed AST and tokenised suppression index.
    """

    def __init__(
        self,
        display: str,
        source: str,
        context: Optional[ModuleContext],
        error: Optional[Violation] = None,
    ) -> None:
        self.display = display
        self.source = source
        self.context = context
        self.error = error
        self._suppressions: Optional[SuppressionIndex] = None

    @property
    def suppressions(self) -> SuppressionIndex:
        """Lazily built (and cached) suppression index for this file."""
        if self._suppressions is None:
            lines = self.context.lines if self.context is not None else []
            self._suppressions = SuppressionIndex(
                self.display, lines, source=self.source
            )
        return self._suppressions

    @classmethod
    def parse(
        cls, path: Union[str, Path], source: str, module: Optional[str] = None
    ) -> "LoadedModule":
        """Parse one in-memory file into a loaded module (never raises)."""
        display = Path(path).as_posix()
        try:
            context = ModuleContext(display, source, module=module)
        except SyntaxError as exc:
            return cls(
                display,
                source,
                None,
                error=Violation(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                    source="",
                ),
            )
        return cls(display, source, context)


class LintResult:
    """Outcome of one lint run: its violations and its flow analysis."""

    def __init__(
        self,
        violations: List[Violation],
        files_scanned: int,
        flow: "FlowResult",
    ) -> None:
        self.violations = violations
        self.files_scanned = files_scanned
        #: The run's flow result: call graph (``flow.analysis``) and the
        #: statistics the reports print (``flow.stats``).
        self.flow = flow

    @property
    def ok(self) -> bool:
        """True when no violations survived suppression filtering."""
        return not self.violations

    def by_code(self) -> List[Tuple[str, int]]:
        """``(code, count)`` pairs, sorted by code — summary fodder."""
        tally: dict = {}
        for violation in self.violations:
            tally[violation.code] = tally.get(violation.code, 0) + 1
        return sorted(tally.items())


def iter_source_files(
    paths: Sequence[Union[str, Path]],
    excluded_parts: Sequence[str] = DEFAULT_EXCLUDED_PARTS,
) -> Iterator[Path]:
    """Yield the ``.py`` files under *paths*, deterministically sorted.

    Directories are walked recursively; files whose path contains an
    excluded fragment are skipped during the walk but never when named
    explicitly (so fixture tests can lint fixture files directly).
    """
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
            for candidate in candidates:
                posix = candidate.as_posix()
                if any(part in posix for part in excluded_parts):
                    continue
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate
        elif path.suffix == ".py":
            if path not in seen:
                seen.add(path)
                yield path


def load_modules(
    paths: Sequence[Union[str, Path]],
    excluded_parts: Sequence[str] = DEFAULT_EXCLUDED_PARTS,
    root: Optional[Union[str, Path]] = None,
) -> List[LoadedModule]:
    """Discover, read, and parse every source file under *paths* once.

    Display paths are made relative to *root* (default: the current
    directory) when possible, keeping reports and baselines
    machine-independent. Unreadable and unparseable files become loaded
    modules carrying an ``RPR001`` error instead of a context.
    """
    base = Path(root) if root is not None else Path.cwd()
    modules: List[LoadedModule] = []
    for file_path in iter_source_files(paths, excluded_parts):
        try:
            display: Union[str, Path] = file_path.resolve().relative_to(
                base.resolve()
            )
        except ValueError:
            display = file_path
        display_posix = Path(display).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            modules.append(
                LoadedModule(
                    display_posix,
                    "",
                    None,
                    error=Violation(
                        path=display_posix,
                        line=1,
                        col=1,
                        code=PARSE_ERROR_CODE,
                        message=f"file is unreadable: {exc}",
                        source="",
                    ),
                )
            )
            continue
        modules.append(LoadedModule.parse(display, source))
    return modules


def _lint_one(module: LoadedModule, rules: Sequence[Rule]) -> List[Violation]:
    """Run the per-file rules over one loaded module."""
    if module.context is None:
        assert module.error is not None
        return [module.error]
    context = module.context
    found: List[Violation] = []
    for rule in rules:
        if rule.applies_to(context):
            found.extend(rule.check(context))
    suppressions = module.suppressions
    kept = [v for v in found if not suppressions.is_suppressed(v)]
    kept.extend(suppressions.malformed)
    return kept


def lint_modules(
    modules: Sequence[LoadedModule],
    rules: Optional[Sequence[AnyRule]] = None,
) -> LintResult:
    """Run the per-file rules and the flow passes over loaded modules.

    *rules* selects from both registries (default: every rule).
    """
    # Imported here: repro.flow builds on this module.
    from repro.flow.engine import run_flow
    from repro.flow.program import Program

    active = [*all_rules(), *all_flow_rules()] if rules is None else rules
    file_rules = [r for r in active if isinstance(r, Rule)]
    flow_rules = [r for r in active if isinstance(r, FlowRule)]
    violations: List[Violation] = []
    for module in modules:
        violations.extend(_lint_one(module, file_rules))
    flow = run_flow(Program(modules), rules=flow_rules)
    return LintResult(
        sorted(violations + flow.violations), len(modules), flow
    )


def lint_source(
    path: Union[str, Path],
    source: str,
    module: Optional[str] = None,
    rules: Optional[Sequence[AnyRule]] = None,
) -> List[Violation]:
    """Lint one in-memory module; the unit every test builds on.

    *module* overrides the package classification (fixtures pretend to
    live in ``repro.perf`` etc.); *rules* restricts the rule set. The
    flow passes see a program of this one module, so they report its
    depth-0 findings and the chains that stay inside it.
    """
    loaded = LoadedModule.parse(path, source, module=module)
    return lint_modules([loaded], rules=rules).violations


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[AnyRule]] = None,
    excluded_parts: Sequence[str] = DEFAULT_EXCLUDED_PARTS,
    root: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint every source file under *paths* as one program."""
    return lint_modules(
        load_modules(paths, excluded_parts, root=root), rules=rules
    )
