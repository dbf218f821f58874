"""Rule registry: codes, metadata, scopes, and the registration decorator.

Every per-file rule is a function ``check(module) -> Iterable[Violation]``
and every flow rule a function ``check(analysis)``, registered under a
stable ``RPRxxx`` code; each invariant has exactly one rule. The code's
hundreds digit is the invariant family (the catalogue in
``docs/static-analysis.md``):

* ``RPR1xx`` — ordering-sensitive ``hash()`` (simulation core only)
* ``RPR2xx`` — exception hygiene
* ``RPR3xx`` — worker-safety (spawn-pool picklability)
* ``RPR4xx`` — telemetry hygiene
* ``RPR5xx`` — subsystem seams (``repro.estimate``)
* ``RPR6xx`` — the whole-program flow passes: determinism, blocking
  coroutines, fsync-before-rename and await races, each from the
  offending call itself (depth 0) through any chain of calls

Scopes keep package-level policy out of the rules themselves: a rule
declares *where it applies* (``sim-core``, ``non-telemetry``,
``estimate``, ``all``; flow rules also ``service`` and ``durable``)
and the engine consults :class:`~repro.lint.context.ModuleContext` for
the module's package. This is how wall-clock stays legal in
``repro.jobs`` and ``repro.telemetry`` — by package scope, not by
``noqa`` comments sprinkled over the allowlisted files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.lint.context import ModuleContext
from repro.lint.violation import Violation

__all__ = [
    "SCOPE_ALL",
    "SCOPE_SIM_CORE",
    "SCOPE_NON_TELEMETRY",
    "SCOPE_SERVICE",
    "SCOPE_DURABLE",
    "SCOPE_ESTIMATE",
    "Rule",
    "FlowRule",
    "register",
    "register_flow",
    "all_rules",
    "all_flow_rules",
    "get_rule",
    "rule_codes",
    "flow_rule_codes",
]

CheckFn = Callable[[ModuleContext], Iterable[Violation]]

#: Rule applies to every linted file.
SCOPE_ALL = "all"
#: Rule applies only inside the deterministic simulation core packages.
SCOPE_SIM_CORE = "sim-core"
#: Rule applies everywhere except inside ``repro.telemetry`` itself.
SCOPE_NON_TELEMETRY = "non-telemetry"
#: Rule applies only inside the estimation backends package.
SCOPE_ESTIMATE = "estimate"
#: Flow rule attributes findings to the online scheduling service.
SCOPE_SERVICE = "service"
#: Flow rule attributes findings to the packages that persist scheduler
#: state: the durability layer itself and the service daemon.
SCOPE_DURABLE = "durable"

#: The scopes :meth:`Rule.applies_to` implements.
_FILE_SCOPES = (SCOPE_ALL, SCOPE_SIM_CORE, SCOPE_NON_TELEMETRY, SCOPE_ESTIMATE)
_VALID_SCOPES = _FILE_SCOPES + (SCOPE_SERVICE, SCOPE_DURABLE)


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    code: str
    name: str
    summary: str
    scope: str
    check: CheckFn
    #: Short rationale paragraph surfaced by ``--list-rules`` and docs.
    rationale: str = field(default="", compare=False)

    def applies_to(self, module: ModuleContext) -> bool:
        """Whether this rule's scope covers *module*'s package."""
        if self.scope == SCOPE_SIM_CORE:
            return module.is_sim_core
        if self.scope == SCOPE_NON_TELEMETRY:
            return not module.in_package("repro.telemetry")
        if self.scope == SCOPE_ESTIMATE:
            return module.in_package("repro.estimate")
        return True


@dataclass(frozen=True)
class FlowRule:
    """One registered *whole-program* invariant check (RPR6xx family).

    Unlike :class:`Rule`, the check receives a ``FlowAnalysis``
    (:mod:`repro.flow.engine`) — symbol table, call graph, and loaded
    modules — instead of one module context, so it can follow an
    invariant across function and module boundaries. The ``scope``
    string is descriptive (which packages the rule attributes findings
    to); scoping is applied *inside* the pass, where the analysis knows
    each function's package.
    """

    code: str
    name: str
    summary: str
    scope: str
    #: ``check(analysis) -> Iterable[Violation]``; typed loosely because
    #: the analysis type lives above this registry (repro.flow).
    check: Callable[[Any], Iterable[Violation]]
    rationale: str = field(default="", compare=False)


_REGISTRY: Dict[str, Rule] = {}

_FLOW_REGISTRY: Dict[str, FlowRule] = {}


def register(
    code: str,
    name: str,
    summary: str,
    scope: str = SCOPE_ALL,
    rationale: str = "",
) -> Callable[[CheckFn], CheckFn]:
    """Register the decorated check function as rule *code*.

    Codes are unique; double registration is a programming error and
    fails loudly at import time rather than shadowing silently.
    """
    if scope not in _FILE_SCOPES:
        raise ConfigurationError(f"unknown rule scope {scope!r} for {code}")

    def decorator(fn: CheckFn) -> CheckFn:
        if code in _REGISTRY:
            raise ConfigurationError(f"lint rule {code} registered twice")
        _REGISTRY[code] = Rule(
            code=code,
            name=name,
            summary=summary,
            scope=scope,
            check=fn,
            rationale=rationale,
        )
        return fn

    return decorator


def register_flow(
    code: str,
    name: str,
    summary: str,
    scope: str = SCOPE_ALL,
    rationale: str = "",
) -> Callable[[Callable[[Any], Iterable[Violation]]],
              Callable[[Any], Iterable[Violation]]]:
    """Register the decorated whole-program check as flow rule *code*.

    Flow rules share the code namespace with per-file rules — a code
    registered in either registry cannot be reused in the other.
    """
    if scope not in _VALID_SCOPES:
        raise ConfigurationError(f"unknown rule scope {scope!r} for {code}")

    def decorator(
        fn: Callable[[Any], Iterable[Violation]],
    ) -> Callable[[Any], Iterable[Violation]]:
        if code in _FLOW_REGISTRY or code in _REGISTRY:
            raise ConfigurationError(f"lint rule {code} registered twice")
        _FLOW_REGISTRY[code] = FlowRule(
            code=code,
            name=name,
            summary=summary,
            scope=scope,
            check=fn,
            rationale=rationale,
        )
        return fn

    return decorator


def _ensure_loaded() -> None:
    """Import the rule modules (registration happens on import)."""
    from repro.lint import rules  # noqa: F401  (import for side effect)
    from repro.flow import rules as flow_rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered per-file rule, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_flow_rules() -> List[FlowRule]:
    """Every registered whole-program flow rule, sorted by code."""
    _ensure_loaded()
    return [_FLOW_REGISTRY[code] for code in sorted(_FLOW_REGISTRY)]


def rule_codes() -> Tuple[str, ...]:
    """The sorted tuple of registered per-file codes."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def flow_rule_codes() -> Tuple[str, ...]:
    """The sorted tuple of registered flow codes."""
    _ensure_loaded()
    return tuple(sorted(_FLOW_REGISTRY))


def get_rule(code: str) -> Rule:
    """Look up one per-file rule; unknown codes raise loudly.

    Flow rules are looked up via :func:`all_flow_rules` — they are not
    interchangeable with per-file rules (different check signature).
    """
    _ensure_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ConfigurationError(f"unknown lint rule code {code!r}") from None
