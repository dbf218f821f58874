"""Declarative, picklable run specifications and their executor.

A :class:`RunSpec` is the unit of work of the orchestration subsystem:
pure data (machine description, workload names, mapping, monitor/policy
configuration, seeds) that fully determines one simulation. Because it is
data, it can be hashed (:func:`repro.jobs.keys.spec_key`), cached,
pickled to a worker process, and re-executed bit-for-bit anywhere.

**Task-id normalisation.** Simulated task ids are drawn from a
process-global counter, so a spec cannot name them. :func:`execute_spec`
renumbers tasks to the stable namespace ``0..n-1`` (in workload order)
before running: every mapping in a spec is expressed in these *task
indices*, group position meaning core number, and every outcome reports
decisions/majorities in the same namespace. A spec's outcome is therefore
the same data no matter which process — parent or any worker — executes
it.

Workload kinds:

* ``"spec"`` — single-threaded SPEC-like benchmarks (one task per name);
* ``"parsec"`` — multithreaded PARSEC-like apps (task index runs over the
  flattened thread list, process index over the apps);
* ``"vm"`` — single-vcpu Xen-like VMs plus the Dom0 background task
  (vcpus take indices ``0..n-1``; Dom0 takes index ``n``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

from repro.alloc.interference import InterferenceGraphPolicy
from repro.alloc.monitor import UserLevelMonitor
from repro.alloc.multithreaded import TwoPhasePolicy
from repro.alloc.weight_sort import WeightSortPolicy
from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.cache.config import CacheConfig, CacheGeometry
from repro.core.signature import SignatureConfig
from repro.errors import ConfigurationError, JobError, SimulationError
from repro.estimate.dispatch import BACKENDS
from repro.estimate.options import EstimatorOptions
from repro.jobs.keys import SPEC_SCHEMA_VERSION
from repro.perf.machine import MachineConfig
from repro.supervise.heartbeat import tick as heartbeat_tick
from repro.perf.timing import TimingModel
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig

__all__ = [
    "WORKLOAD_KINDS",
    "POLICY_REGISTRY",
    "build_policy",
    "policy_to_spec",
    "machine_to_dict",
    "machine_from_dict",
    "WorkloadSpec",
    "MonitorSpec",
    "RunSpec",
    "make_run_spec",
    "TaskOutcome",
    "RunOutcome",
    "execute_spec",
]

#: Workload families a spec can describe.
WORKLOAD_KINDS = ("spec", "parsec", "vm")

#: Allocation policies constructible from a spec, by registry name.
POLICY_REGISTRY = {
    "weight_sort": WeightSortPolicy,
    "interference_graph": InterferenceGraphPolicy,
    "weighted_interference_graph": WeightedInterferenceGraphPolicy,
    "two_phase": TwoPhasePolicy,
}


def build_policy(name: str, kwargs: Optional[TMapping[str, Any]] = None):
    """Instantiate a registered allocation policy from its spec form."""
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered: {sorted(POLICY_REGISTRY)}"
        ) from None
    return cls(**dict(kwargs or {}))


def policy_to_spec(policy) -> Tuple[str, Dict[str, Any]]:
    """Extract the (registry name, constructor kwargs) of a policy instance.

    Only registry policies can be described declaratively, and the
    experiment drivers run nothing else; any other policy raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(policy, TwoPhasePolicy):
        return "two_phase", {"method": policy.method, "seed": policy.seed}
    if isinstance(policy, WeightedInterferenceGraphPolicy):
        return "weighted_interference_graph", {
            "method": policy.method, "seed": policy.seed,
        }
    if isinstance(policy, InterferenceGraphPolicy):
        return "interference_graph", {
            "method": policy.method, "seed": policy.seed,
        }
    if isinstance(policy, WeightSortPolicy):
        return "weight_sort", {}
    raise ConfigurationError(
        f"policy {type(policy).__name__} is not spec-describable; "
        "register it in POLICY_REGISTRY"
    )


# ---------------------------------------------------------------------------
# Machine (de)serialisation
# ---------------------------------------------------------------------------
def machine_to_dict(machine: MachineConfig) -> Dict[str, Any]:
    """Full, order-stable dict form of a machine configuration."""
    return asdict(machine)


def _cache_from_dict(d: Optional[TMapping[str, Any]]) -> Optional[CacheConfig]:
    if d is None:
        return None
    return CacheConfig(name=d["name"], geometry=CacheGeometry(**d["geometry"]))


def machine_from_dict(d: TMapping[str, Any]) -> MachineConfig:
    """Rebuild a :class:`~repro.perf.machine.MachineConfig` from its dict."""
    return MachineConfig(
        name=d["name"],
        num_cores=d["num_cores"],
        l2=_cache_from_dict(d["l2"]),
        shared_l2=d["shared_l2"],
        l1=_cache_from_dict(d.get("l1")),
        timing=TimingModel(**d["timing"]),
        clock_hz=d["clock_hz"],
    )


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Which workload to build, declaratively.

    Parameters
    ----------
    kind:
        One of :data:`WORKLOAD_KINDS`.
    names:
        Benchmark / application / VM profile names, in build order.
    instructions:
        Per-run instruction budget (per *thread* for ``parsec``).
    seed:
        Build seed fed to the task/VM builders (generator seeds derive
        from it per name and position); ``vm`` workloads also seed the
        Dom0 background workload with it.
    """

    kind: str
    names: Tuple[str, ...]
    instructions: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; expected {WORKLOAD_KINDS}"
            )
        if not self.names:
            raise ConfigurationError("workload needs at least one name")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "kind": self.kind,
            "names": list(self.names),
            "instructions": self.instructions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: TMapping[str, Any]) -> "WorkloadSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kind=d["kind"],
            names=tuple(d["names"]),
            instructions=d["instructions"],
            seed=d["seed"],
        )


@dataclass(frozen=True)
class MonitorSpec:
    """Phase-1 monitor configuration: which policy runs, how often.

    Parameters
    ----------
    policy:
        Registry name (see :data:`POLICY_REGISTRY`).
    policy_kwargs:
        Constructor kwargs of the policy (JSON-native values only).
    interval_cycles:
        Allocator invocation period in simulated cycles.
    apply:
        Whether decisions are pushed back via affinity bits.
    """

    policy: str
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    interval_cycles: float = 8_000_000.0
    apply: bool = True

    @classmethod
    def make(
        cls,
        policy: str,
        policy_kwargs: Optional[TMapping[str, Any]] = None,
        interval_cycles: float = 8_000_000.0,
        apply: bool = True,
    ) -> "MonitorSpec":
        """Build from a kwargs dict (stored internally as sorted items)."""
        items = tuple(sorted((policy_kwargs or {}).items()))
        return cls(policy, items, float(interval_cycles), bool(apply))

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The policy constructor kwargs as a dict."""
        return dict(self.policy_kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "policy": self.policy,
            "policy_kwargs": self.kwargs,
            "interval_cycles": self.interval_cycles,
            "apply": self.apply,
        }

    @classmethod
    def from_dict(cls, d: TMapping[str, Any]) -> "MonitorSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls.make(
            d["policy"], d["policy_kwargs"], d["interval_cycles"], d["apply"]
        )


IndexGroups = Tuple[Tuple[int, ...], ...]


def _normalize_groups(groups: Optional[Sequence[Sequence[int]]]) -> Optional[IndexGroups]:
    if groups is None:
        return None
    return tuple(tuple(sorted(int(i) for i in g)) for g in groups)


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation, as pure data.

    Parameters
    ----------
    machine:
        Machine description (:func:`machine_to_dict` form).
    workload:
        What runs (:class:`WorkloadSpec`).
    mapping:
        Optional pinned placement as groups of *task indices*; group
        position is the core number. ``None`` means the simulator's
        default round-robin placement.
    monitor:
        Optional phase-1 monitor (:class:`MonitorSpec`).
    signature:
        Optional full :class:`~repro.core.signature.SignatureConfig`
        kwargs (attaches the signature hardware).
    scheduler:
        Optional full :class:`~repro.sched.os_model.SchedulerConfig`
        kwargs.
    overhead:
        Optional :class:`~repro.virt.overhead.VirtualizationOverhead`
        kwargs (``vm`` workloads only).
    batch_accesses:
        Interleaving grain of the simulator.
    min_wall_cycles / max_wall_cycles:
        Optional wall-clock bounds (phase-1 gathering / truncated runs).
    faults:
        Optional signature fault-injection plan — the ``to_dict`` form of
        a :class:`~repro.faults.injectors.SignatureFaultInjector`
        (``{"kind": ..., ...}``). ``None`` (the default) runs fault-free
        and is **omitted from the canonical dict**, so pre-existing spec
        keys and cached outcomes stay valid.
    backend:
        Which simulation backend executes the spec — one of
        :data:`~repro.estimate.dispatch.BACKENDS`. The default
        ``"exact"`` is **omitted from the canonical dict** (same
        backward-compatibility pattern as ``faults``); estimate
        backends enter the content address, so exact and estimated
        outcomes never share a cache entry.
    estimator:
        Optional :class:`~repro.estimate.options.EstimatorOptions`
        kwargs for the estimate backends (``None`` means defaults, and
        is omitted from the canonical dict). Rejected when
        ``backend="exact"`` — silent no-op knobs would poison cache
        keys.
    """

    machine: TMapping[str, Any]
    workload: WorkloadSpec
    mapping: Optional[IndexGroups] = None
    monitor: Optional[MonitorSpec] = None
    signature: Optional[TMapping[str, Any]] = None
    scheduler: Optional[TMapping[str, Any]] = None
    overhead: Optional[TMapping[str, Any]] = None
    batch_accesses: int = 256
    min_wall_cycles: Optional[float] = None
    max_wall_cycles: Optional[float] = None
    faults: Optional[TMapping[str, Any]] = None
    backend: str = "exact"
    estimator: Optional[TMapping[str, Any]] = None

    #: Every field with a canonical serialisation in :meth:`to_dict`.
    #: A field added to the dataclass but not here (and to ``to_dict``)
    #: would silently drop out of the content address — hashing fails
    #: loudly instead.
    _SERIALISED_FIELDS = frozenset({
        "machine", "workload", "mapping", "monitor", "signature",
        "scheduler", "overhead", "batch_accesses",
        "min_wall_cycles", "max_wall_cycles", "faults", "backend",
        "estimator",
    })

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.estimator is not None:
            if self.backend == "exact":
                raise ConfigurationError(
                    "estimator options are meaningless on the exact "
                    "backend; set backend='analytical' or 'sampled'"
                )
            # Validate eagerly: unknown estimator knobs fail at spec
            # construction, not in a worker process.
            EstimatorOptions.from_dict(self.estimator)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (the input to key hashing).

        Fails loudly (:class:`~repro.errors.JobError`) if the dataclass
        has grown a field this method does not serialise — an unknown
        extension field must never be silently excluded from the
        content address.
        """
        unhandled = {
            f.name for f in fields(self)
        } - self._SERIALISED_FIELDS
        if unhandled:
            raise JobError(
                f"run spec fields {sorted(unhandled)} have no canonical "
                "serialisation; extend RunSpec.to_dict (and bump the "
                "spec schema if semantics changed) before hashing"
            )
        d = {
            "schema": SPEC_SCHEMA_VERSION,
            "machine": dict(self.machine),
            "workload": self.workload.to_dict(),
            "mapping": (
                None if self.mapping is None
                else [list(g) for g in self.mapping]
            ),
            "monitor": None if self.monitor is None else self.monitor.to_dict(),
            "signature": None if self.signature is None else dict(self.signature),
            "scheduler": None if self.scheduler is None else dict(self.scheduler),
            "overhead": None if self.overhead is None else dict(self.overhead),
            "batch_accesses": self.batch_accesses,
            "min_wall_cycles": self.min_wall_cycles,
            "max_wall_cycles": self.max_wall_cycles,
        }
        if self.faults is not None:
            d["faults"] = dict(self.faults)
        if self.backend != "exact":
            d["backend"] = self.backend
        if self.estimator is not None:
            d["estimator"] = dict(self.estimator)
        return d

    @classmethod
    def from_dict(cls, d: TMapping[str, Any]) -> "RunSpec":
        """Rebuild from :meth:`to_dict` output (schema-checked).

        Unknown keys fail loudly: a spec dict carrying a field this
        version cannot serialise back would round-trip to a *different*
        content address, so it is rejected outright.
        """
        schema = d.get("schema")
        if schema != SPEC_SCHEMA_VERSION:
            raise JobError(
                f"run spec schema {schema!r} != supported {SPEC_SCHEMA_VERSION}"
            )
        unknown = set(d) - cls._SERIALISED_FIELDS - {"schema"}
        if unknown:
            raise JobError(
                f"run spec dict carries unknown fields {sorted(unknown)}; "
                "refusing to round-trip a spec this version cannot rehash"
            )
        return cls(
            machine=dict(d["machine"]),
            workload=WorkloadSpec.from_dict(d["workload"]),
            mapping=_normalize_groups(d.get("mapping")),
            monitor=(
                None if d.get("monitor") is None
                else MonitorSpec.from_dict(d["monitor"])
            ),
            signature=None if d.get("signature") is None else dict(d["signature"]),
            scheduler=None if d.get("scheduler") is None else dict(d["scheduler"]),
            overhead=None if d.get("overhead") is None else dict(d["overhead"]),
            batch_accesses=d["batch_accesses"],
            min_wall_cycles=d.get("min_wall_cycles"),
            max_wall_cycles=d.get("max_wall_cycles"),
            faults=None if d.get("faults") is None else dict(d["faults"]),
            backend=d.get("backend", "exact"),
            estimator=(
                None if d.get("estimator") is None else dict(d["estimator"])
            ),
        )


def make_run_spec(
    machine: MachineConfig,
    workload: WorkloadSpec,
    *,
    mapping: Optional[Sequence[Sequence[int]]] = None,
    monitor: Optional[MonitorSpec] = None,
    signature: Optional[SignatureConfig] = None,
    scheduler: Optional[SchedulerConfig] = None,
    overhead: Optional[TMapping[str, Any]] = None,
    batch_accesses: int = 256,
    min_wall_cycles: Optional[float] = None,
    max_wall_cycles: Optional[float] = None,
    faults: Optional[TMapping[str, Any]] = None,
    backend: str = "exact",
    estimator: Optional[TMapping[str, Any]] = None,
) -> RunSpec:
    """Build a :class:`RunSpec` from live configuration objects."""
    return RunSpec(
        machine=machine_to_dict(machine),
        workload=workload,
        mapping=_normalize_groups(mapping),
        monitor=monitor,
        signature=None if signature is None else asdict(signature),
        scheduler=None if scheduler is None else asdict(scheduler),
        overhead=None if overhead is None else dict(overhead),
        batch_accesses=batch_accesses,
        min_wall_cycles=min_wall_cycles,
        max_wall_cycles=max_wall_cycles,
        faults=None if faults is None else dict(faults),
        backend=backend,
        estimator=None if estimator is None else dict(estimator),
    )


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskOutcome:
    """Per-task summary of one executed spec (index-space ids)."""

    index: int
    name: str
    process: int
    user_cycles: Optional[float]
    completions: int
    context_switches: int


@dataclass(frozen=True)
class RunOutcome:
    """JSON-safe summary of one simulation, in the spec's index namespace.

    ``decisions``/``majority`` are canonical mappings serialised as
    groups of task indices (each group sorted, groups in canonical
    order). ``cached`` is a parent-side annotation — it is *not* part of
    the persisted form. ``degradations`` carries the monitor's structured
    degradation events (empty for healthy runs, and omitted from the
    persisted form when empty so pre-existing cache entries stay valid).
    """

    wall_cycles: float
    l2_miss_rate: float
    tasks: Tuple[TaskOutcome, ...]
    decisions: Tuple[IndexGroups, ...] = ()
    majority: Optional[IndexGroups] = None
    degradations: Tuple[Dict[str, Any], ...] = ()
    cached: bool = field(default=False, compare=False)

    def user_time(self, name: str) -> float:
        """First-completion user time of the named task (first match)."""
        for t in self.tasks:
            if t.name == name:
                if t.user_cycles is None:
                    raise SimulationError(f"task {name!r} never completed")
                return t.user_cycles
        raise KeyError(f"no task named {name!r}")

    def process_time(self, process: int) -> float:
        """Slowest-thread first-completion time of one process index."""
        times = [t.user_cycles for t in self.tasks if t.process == process]
        if not times or any(x is None for x in times):
            raise SimulationError(f"process {process} never completed")
        return max(times)

    def decisions_mappings(self) -> List[Mapping]:
        """The phase-1 decision history as :class:`Mapping` objects."""
        return [Mapping.from_groups(groups) for groups in self.decisions]

    def majority_mapping(self) -> Optional[Mapping]:
        """The majority decision as a :class:`Mapping` (or ``None``)."""
        if self.majority is None:
            return None
        return Mapping.from_groups(self.majority)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form (what the result cache stores)."""
        d = {
            "wall_cycles": self.wall_cycles,
            "l2_miss_rate": self.l2_miss_rate,
            "tasks": [asdict(t) for t in self.tasks],
            "decisions": [[list(g) for g in m] for m in self.decisions],
            "majority": (
                None if self.majority is None
                else [list(g) for g in self.majority]
            ),
        }
        if self.degradations:
            d["degradations"] = [dict(e) for e in self.degradations]
        return d

    @classmethod
    def from_dict(cls, d: TMapping[str, Any], cached: bool = False) -> "RunOutcome":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            wall_cycles=d["wall_cycles"],
            l2_miss_rate=d["l2_miss_rate"],
            tasks=tuple(TaskOutcome(**t) for t in d["tasks"]),
            decisions=tuple(
                _normalize_groups(m) for m in d.get("decisions", ())
            ),
            majority=_normalize_groups(d.get("majority")),
            degradations=tuple(
                dict(e) for e in d.get("degradations", ())
            ),
            cached=cached,
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _mapping_groups(mapping: Mapping) -> IndexGroups:
    """Serialise a canonical index-space mapping as sorted groups."""
    return tuple(tuple(sorted(g)) for g in mapping.groups)


def _build_native_tasks(workload: WorkloadSpec):
    """Build + normalise tasks for 'spec'/'parsec' workloads.

    Returns ``(tasks, processes)``; *processes* is ``None`` for the
    single-threaded kind.
    """
    from repro.perf.runner import build_parsec_processes, build_tasks

    if workload.kind == "spec":
        tasks = build_tasks(
            list(workload.names),
            instructions=workload.instructions,
            seed=workload.seed,
        )
        for i, task in enumerate(tasks):
            task.tid = i
            task.process_id = i
        return tasks, None
    processes = build_parsec_processes(
        list(workload.names),
        instructions_per_thread=workload.instructions,
        seed=workload.seed,
    )
    tasks = [t for p in processes for t in p.tasks]
    for i, task in enumerate(tasks):
        task.tid = i
    for pi, process in enumerate(processes):
        process.process_id = pi
        for task in process.tasks:
            task.process_id = pi
    return tasks, processes


def execute_spec(payload: TMapping[str, Any]) -> Dict[str, Any]:
    """Execute one serialised :class:`RunSpec`; return the outcome dict.

    This is the worker-side entry point of the orchestration subsystem:
    it is a module-level function (picklable by reference), takes only
    JSON-native data and returns only JSON-native data. Task/process ids
    are normalised to the spec's index namespace before the run, so the
    result is bit-for-bit identical in any host process.
    """
    from repro.telemetry.context import current as telemetry_current, init_from_env

    # Worker processes re-initialise telemetry from REPRO_TRACE (spawned
    # workers inherit the environment but not live objects); in the
    # parent this is a no-op unless the env var is set and nothing is
    # configured yet.
    tel = init_from_env() or telemetry_current()
    spec = payload if isinstance(payload, RunSpec) else RunSpec.from_dict(payload)
    tel_span = (
        tel.tracer.begin(
            "job.execute_spec",
            kind=spec.workload.kind,
            names="+".join(spec.workload.names),
        )
        if tel is not None and tel.tracer is not None
        else None
    )
    try:
        return _execute_spec_inner(spec)
    finally:
        if tel_span is not None:
            tel.tracer.end(tel_span)
        if tel is not None and tel.autoflush:
            tel.flush_part()


def _execute_spec_inner(spec: RunSpec) -> Dict[str, Any]:
    """Build and run the simulation one :class:`RunSpec` describes.

    The heartbeat ticks at the phase boundaries (build / run / finish)
    are no-ops outside a supervised worker; under supervision they let
    the watchdog tell a *hung* worker from one that is merely between
    ticker beats during a long build.
    """
    heartbeat_tick("build")
    machine = machine_from_dict(spec.machine)
    signature = (
        None if spec.signature is None else SignatureConfig(**spec.signature)
    )
    scheduler = (
        None if spec.scheduler is None else SchedulerConfig(**spec.scheduler)
    )
    mapping = (
        None if spec.mapping is None else Mapping.from_groups(spec.mapping)
    )
    injector = _build_injector(spec)

    heartbeat_tick("run")
    if spec.backend != "exact":
        result = _execute_estimated(spec, machine, scheduler, mapping)
    elif spec.workload.kind == "vm":
        result = _execute_vm(
            spec, machine, signature, scheduler, mapping, injector
        )
    else:
        from repro.perf.runner import run_mix

        tasks, _ = _build_native_tasks(spec.workload)
        monitor = _build_monitor(spec, vm=False)
        result = run_mix(
            machine,
            tasks,
            mapping=mapping,
            monitor=monitor,
            signature_config=signature,
            scheduler_config=scheduler,
            batch_accesses=spec.batch_accesses,
            min_wall_cycles=spec.min_wall_cycles,
            max_wall_cycles=spec.max_wall_cycles,
            signature_injector=injector,
        )

    heartbeat_tick("finish")
    outcome = RunOutcome(
        wall_cycles=result.wall_cycles,
        l2_miss_rate=result.l2_miss_rate,
        tasks=tuple(
            TaskOutcome(
                index=t.tid,
                name=t.name,
                process=t.process_id,
                user_cycles=t.first_completion_cycles,
                completions=t.completions,
                context_switches=t.context_switches,
            )
            for t in result.tasks
        ),
        decisions=tuple(_mapping_groups(d) for d in result.decisions),
        majority=(
            None if result.majority_mapping is None
            else _mapping_groups(result.majority_mapping)
        ),
        degradations=tuple(result.degradations),
    )
    return outcome.to_dict()


def _execute_estimated(spec: RunSpec, machine, scheduler, mapping):
    """Run a spec through an estimate backend (loudly rejecting the rest).

    The estimate backends answer plain measurement questions (user
    times, degradations, miss rates); features that need the exact
    engine's event stream — monitors, signature hardware, fault
    injection, virtualization, wall-cycle bounds — are configuration
    errors, not silent downgrades.
    """
    from repro.estimate.dispatch import estimate_mix

    unsupported = [
        name
        for name, value in (
            ("monitor", spec.monitor),
            ("signature", spec.signature),
            ("overhead", spec.overhead),
            ("faults", spec.faults),
            ("min_wall_cycles", spec.min_wall_cycles),
            ("max_wall_cycles", spec.max_wall_cycles),
        )
        if value is not None
    ]
    if unsupported:
        raise ConfigurationError(
            f"the {spec.backend!r} backend does not support "
            f"{', '.join(unsupported)}; use backend='exact'"
        )
    if spec.workload.kind == "vm":
        raise ConfigurationError(
            f"the {spec.backend!r} backend does not support 'vm' "
            "workloads; use backend='exact'"
        )
    tasks, _ = _build_native_tasks(spec.workload)
    result, _report = estimate_mix(
        machine,
        tasks,
        backend=spec.backend,
        mapping=mapping,
        scheduler_config=scheduler,
        batch_accesses=spec.batch_accesses,
        options=EstimatorOptions.from_dict(spec.estimator),
    )
    return result


def _build_injector(spec: RunSpec):
    """Instantiate the spec's signature fault injector (or ``None``).

    Imported lazily: :mod:`repro.faults` imports this module (the chaos
    harness wraps :func:`execute_spec`), so a top-level import would
    cycle.
    """
    if spec.faults is None:
        return None
    from repro.faults.injectors import build_injector

    return build_injector(spec.faults)


def _build_monitor(spec: RunSpec, vm: bool):
    """Instantiate the monitor (or Dom0 agent) described by the spec.

    Non-VM monitors get the signature filter's entry count (when the spec
    attaches signature hardware) so the saturation health check is armed;
    with the default ``saturation_fraction`` of 1.0 this cannot trigger
    on a healthy run — only a saturating fault reaches a full filter.
    """
    if spec.monitor is None:
        return None
    policy = build_policy(spec.monitor.policy, spec.monitor.kwargs)
    if vm:
        from repro.virt.dom0 import Dom0AllocationAgent

        return Dom0AllocationAgent(
            policy,
            interval_cycles=spec.monitor.interval_cycles,
            apply=spec.monitor.apply,
        )
    capacity = (
        None if spec.signature is None
        else SignatureConfig(**spec.signature).num_entries
    )
    return UserLevelMonitor(
        policy,
        interval_cycles=spec.monitor.interval_cycles,
        apply=spec.monitor.apply,
        signature_capacity=capacity,
    )


def _execute_vm(spec, machine, signature, scheduler, mapping, injector=None):
    """Build the hypervisor stack for a 'vm' spec and run it."""
    # Imported lazily: repro.virt.dom0 imports repro.perf.experiment,
    # which imports this module — a top-level import would cycle.
    from repro.virt.dom0 import _build_vms
    from repro.virt.hypervisor import Hypervisor
    from repro.virt.overhead import VirtualizationOverhead

    vms = _build_vms(
        list(spec.workload.names), spec.workload.instructions, spec.workload.seed
    )
    overhead = (
        None if spec.overhead is None
        else VirtualizationOverhead(**spec.overhead)
    )
    hypervisor = Hypervisor(
        machine, vms, overhead=overhead, seed=spec.workload.seed
    )
    index = 0
    for vi, vm in enumerate(hypervisor.vms):
        for vcpu in vm.vcpus:
            vcpu.tid = index
            vcpu.process_id = vi
            index += 1
    if hypervisor.dom0_task is not None:
        hypervisor.dom0_task.tid = index
        hypervisor.dom0_task.process_id = len(hypervisor.vms)
    monitor = _build_monitor(spec, vm=True)
    return hypervisor.run(
        mapping=mapping,
        signature_config=signature,
        monitor=monitor,
        scheduler_config=scheduler,
        batch_accesses=spec.batch_accesses,
        min_wall_cycles=spec.min_wall_cycles,
        max_wall_cycles=spec.max_wall_cycles,
        signature_injector=injector,
    )
