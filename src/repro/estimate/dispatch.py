"""The backend seam: one entry point, three ways to produce a result.

Everything that wants a fast-path result goes through
:func:`estimate_mix` (or, for run specs, the ``backend`` field on
:class:`~repro.jobs.spec.RunSpec`, whose executor calls in here). The
module is also the **only** place inside :mod:`repro.estimate` allowed
to construct the exact :class:`~repro.perf.simulator.MulticoreSimulator`
— lint rule RPR503 enforces that every other estimate module obtains it
via :func:`make_exact_simulator`, which keeps the exact engine swappable
behind one seam (a compiled simulator drops in here, and every backend
picks it up).

Telemetry: enabled runs emit an ``estimate.run`` span and the
``estimate_*`` metrics family (runs per backend, references profiled vs
simulated, sampled coverage/error bound). As everywhere in the
simulation core, the disabled path is untouched arithmetic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.estimate.gate import EstimateGate
from repro.estimate.options import EstimatorOptions
from repro.estimate.sampled import SampleReport
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator, SimulationResult
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.telemetry.context import current as telemetry_current

__all__ = ["BACKENDS", "MappingLike", "as_mapping", "make_exact_simulator", "estimate_mix"]

#: Simulation backends selectable per run spec.
BACKENDS = ("exact", "analytical", "sampled")

#: A placement: either a ready :class:`~repro.sched.affinity.Mapping`
#: or raw per-core groups of task ids awaiting normalisation.
MappingLike = Union[Mapping, Sequence[Sequence[int]]]


def as_mapping(mapping: Optional[MappingLike]) -> Optional[Mapping]:
    """Normalise a placement argument to a :class:`Mapping` (or None)."""
    if mapping is None or isinstance(mapping, Mapping):
        return mapping
    return Mapping.from_groups(mapping)


def make_exact_simulator(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    *,
    mapping: Optional[MappingLike] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    batch_accesses: int = 256,
) -> MulticoreSimulator:
    """Construct the exact simulator for an estimate-internal run.

    The dispatch seam of RPR503: estimate backends that need exact
    simulation (the sampled backend's representative intervals, the
    validation harness's ground truth) call this instead of naming
    :class:`~repro.perf.simulator.MulticoreSimulator` themselves.
    """
    return MulticoreSimulator(
        machine,
        tasks,
        mapping=as_mapping(mapping),
        scheduler_config=scheduler_config,
        batch_accesses=batch_accesses,
    )


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
        )


def estimate_mix(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    *,
    backend: str,
    mapping: Optional[MappingLike] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    batch_accesses: int = 256,
    options: Optional[EstimatorOptions] = None,
    gate: Optional[EstimateGate] = None,
) -> Tuple[SimulationResult, Optional[SampleReport]]:
    """Run one mix through the selected backend.

    Returns ``(result, sample_report)`` — the report is ``None`` for
    the exact and analytical backends (they do not sample). The result
    type is identical across backends, so downstream consumers
    (experiment drivers, the alloc degradation matrix, run-spec
    outcomes) never branch on the backend.

    With a :class:`~repro.estimate.gate.EstimateGate` attached, a fast
    backend request whose mix falls outside the gate's envelope
    (signature aliasing, footprint-bomb pressure, collapsed confidence)
    is rerouted to the exact engine: the gate books a structured
    degradation event and the ``estimate_fallback_total`` metric is
    incremented. ``gate=None`` (the default) is byte-identical to the
    ungated seam.
    """
    _check_backend(backend)
    fallback_event = None
    if gate is not None and backend != "exact":
        fallback_event = gate.evaluate(machine, tasks)
        if fallback_event is not None:
            fallback_event = {"requested_backend": backend, **fallback_event}
            gate.record(fallback_event)
            backend = "exact"
    mapping = as_mapping(mapping)
    options = options or EstimatorOptions()
    tel = telemetry_current()
    tracer = tel.tracer if tel is not None else None
    metrics = tel.metrics if tel is not None else None
    span = (
        tracer.begin(
            "estimate.run",
            backend=backend,
            machine=machine.name,
            tasks=len(tasks),
        )
        if tracer is not None
        else None
    )
    try:
        if backend == "exact":
            result = make_exact_simulator(
                machine,
                tasks,
                mapping=mapping,
                scheduler_config=scheduler_config,
                batch_accesses=batch_accesses,
            ).run()
            report = None
        elif backend == "analytical":
            from repro.estimate.analytical import analytical_simulation

            result = analytical_simulation(
                machine, tasks, mapping=mapping, options=options
            )
            report = None
        else:
            from repro.estimate.sampled import sampled_simulation

            result, report = sampled_simulation(
                machine,
                tasks,
                mapping=mapping,
                scheduler_config=scheduler_config,
                batch_accesses=batch_accesses,
                options=options,
            )
    finally:
        if span is not None:
            tracer.end(span)
    if metrics is not None:
        total_refs = float(sum(t.total_accesses for t in tasks))
        metrics.counter(
            f"estimate_{backend}_runs_total",
            help=f"mixes run through the {backend} backend",
        ).inc()
        if fallback_event is not None:
            metrics.counter(
                "estimate_fallback_total",
                help="fast-path mixes rerouted to the exact engine by the gate",
            ).inc()
        metrics.counter(
            "estimate_refs_total",
            help="full-trace references covered by estimate runs",
        ).inc(total_refs)
        if report is not None:
            metrics.gauge(
                "estimate_sampled_coverage",
                help="fraction of references exactly simulated (last run)",
            ).set(report.coverage)
            if report.error_bound is not None:
                metrics.gauge(
                    "estimate_sampled_error_bound",
                    help="indicative sampling error bound (last run)",
                ).set(report.error_bound)
    return result, report
