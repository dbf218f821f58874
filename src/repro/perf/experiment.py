"""Experiment drivers reproducing the paper's evaluation methodology.

* :func:`pairwise_shared` / :func:`pairwise_private_timeshare` — the
  Section 2.3 motivation experiments (Figures 3(b) and 3(a)).
* :func:`run_all_mappings` — user times under every balanced mapping
  (Table 1's three columns for a 4-on-2 mix).
* :func:`two_phase` — the full Section 4 methodology: phase 1 gathers
  signatures under the monitor and majority-votes a schedule; phase 2
  measures every mapping and scores the chosen one.
* :func:`mix_sweep` / :func:`stratified_mixes` — the Figure 10/11 sweeps
  (per-benchmark max/avg improvement across 4-benchmark mixes).
* :func:`parsec_two_phase` — the Figure 12 multithreaded variant.

Every driver but :func:`run_all_mappings` describes its simulations as
run specs (:mod:`repro.jobs.spec`) and executes them through an
:class:`~repro.jobs.orchestrator.Orchestrator`: the one passed as
``orchestrator=``, else an in-process one with no result cache. Mappings
in their results are in task-index space (task ``i`` is the ``i``-th
name), and a result depends only on the driver's arguments, whatever the
worker count. :func:`run_all_mappings` takes live tasks, for inputs no
spec can describe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

import numpy as np

from repro.alloc.multithreaded import TwoPhasePolicy
from repro.errors import ConfigurationError, SimulationError
from repro.estimate.dispatch import estimate_mix
from repro.estimate.options import EstimatorOptions
from repro.jobs.failures import (
    FailureReport,
    JobFailure,
    MixDegradation,
    MixFailure,
)
from repro.jobs.orchestrator import Orchestrator
from repro.jobs.spec import (
    MonitorSpec,
    WorkloadSpec,
    make_run_spec,
    policy_to_spec,
)
from repro.perf.machine import MachineConfig
from repro.perf.runner import (
    DEFAULT_INSTRUCTIONS,
    default_signature_config,
    run_mix,
)
from repro.sched.affinity import Mapping, balanced_mappings, canonical_mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.utils.rng import make_rng
from repro.workloads.parsec import parsec_profile

__all__ = [
    "PairwiseResult",
    "pairwise_shared",
    "pairwise_private_timeshare",
    "run_all_mappings",
    "MixResult",
    "two_phase",
    "SweepResult",
    "mix_sweep",
    "stratified_mixes",
    "parsec_two_phase",
    "default_mapping_for",
]


# ---------------------------------------------------------------------------
# Figure 3: pairwise degradation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PairwiseResult:
    """Solo and paired user times for a benchmark pool."""

    names: Tuple[str, ...]
    solo_times: Dict[str, float]
    pair_times: Dict[Tuple[str, str], Dict[str, float]]

    def degradation(self, name: str, partner: str) -> float:
        """Relative slowdown of *name* when run with *partner*."""
        key = tuple(sorted((name, partner)))
        paired = self.pair_times[key][name]
        return paired / self.solo_times[name] - 1.0

    def worst_degradation(self, name: str) -> Tuple[str, float]:
        """(partner, slowdown) of the worst pairing for *name*."""
        worst = max(
            (p for p in self.names if p != name),
            key=lambda p: self.degradation(name, p),
        )
        return worst, self.degradation(name, worst)

    def worst_case_table(self) -> Dict[str, float]:
        """name -> worst-case degradation (the bars of Figure 3)."""
        return {name: self.worst_degradation(name)[1] for name in self.names}


def _pairwise(
    machine: MachineConfig,
    names: Sequence[str],
    instructions: int,
    seed: int,
    batch_accesses: int,
    pair_groups: Sequence[Sequence[int]],
    orchestrator,
) -> PairwiseResult:
    """One batch: every name solo, then every pair placed by *pair_groups*.

    *pair_groups* is over task indices 0 and 1: the pair's names in
    sorted order.
    """
    ordered = sorted(names)
    pairs = list(itertools.combinations(ordered, 2))
    specs = [
        make_run_spec(
            machine,
            WorkloadSpec(kind="spec", names=(name,),
                         instructions=instructions, seed=seed),
            seed=seed, batch_accesses=batch_accesses,
        )
        for name in ordered
    ] + [
        make_run_spec(
            machine,
            WorkloadSpec(kind="spec", names=(a, b),
                         instructions=instructions, seed=seed),
            mapping=pair_groups,
            seed=seed, batch_accesses=batch_accesses,
        )
        for a, b in pairs
    ]
    outcomes = (orchestrator or Orchestrator(jobs=1)).run_specs(specs)
    solo = {
        name: outcomes[i].user_time(name) for i, name in enumerate(ordered)
    }
    pair_times = {
        (a, b): {a: out.user_time(a), b: out.user_time(b)}
        for (a, b), out in zip(pairs, outcomes[len(ordered):])
    }
    return PairwiseResult(
        names=tuple(ordered), solo_times=solo, pair_times=pair_times
    )


def pairwise_shared(
    machine: MachineConfig,
    names: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    batch_accesses: int = 256,
    orchestrator=None,
) -> PairwiseResult:
    """Figure 3(b): pairs on different cores sharing the L2."""
    if not machine.shared_l2 or machine.num_cores < 2:
        raise ConfigurationError("pairwise_shared needs a shared-L2 multicore")
    return _pairwise(
        machine, names, instructions, seed, batch_accesses,
        pair_groups=[[0], [1]],
        orchestrator=orchestrator,
    )


def pairwise_private_timeshare(
    machine: MachineConfig,
    names: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    batch_accesses: int = 256,
    orchestrator=None,
) -> PairwiseResult:
    """Figure 3(a): pairs confined to a single core with a private L2.

    The only interaction left is context-switch cache warm-up, which the
    paper measures at under ~10%.
    """
    return _pairwise(
        machine, names, instructions, seed, batch_accesses,
        pair_groups=[[0, 1]] + [[] for _ in range(machine.num_cores - 1)],
        orchestrator=orchestrator,
    )


# ---------------------------------------------------------------------------
# Table 1 / Figures 10-14: mapping evaluation and the two-phase methodology
# ---------------------------------------------------------------------------
def default_mapping_for(tasks: Sequence[SimTask], num_cores: int) -> Mapping:
    """The simulator's default placement (round-robin in task order)."""
    groups: List[List[int]] = [[] for _ in range(num_cores)]
    for i, task in enumerate(tasks):
        groups[i % num_cores].append(task.tid)
    return canonical_mapping(groups)


def _sample_mappings(
    mappings: List[Mapping], seed: int, max_mappings: Optional[int]
) -> List[Mapping]:
    """Deterministically cap a mapping list to *max_mappings* samples."""
    if max_mappings is not None and len(mappings) > max_mappings:
        rng = make_rng(seed)
        idx = rng.choice(len(mappings), size=max_mappings, replace=False)
        mappings = [mappings[i] for i in sorted(idx)]
    return mappings


def _default_index_mapping(num_tasks: int, num_cores: int) -> Mapping:
    """Round-robin default placement over task indices 0..num_tasks-1."""
    groups: List[List[int]] = [[] for _ in range(num_cores)]
    for i in range(num_tasks):
        groups[i % num_cores].append(i)
    return canonical_mapping(groups)


def run_all_mappings(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    seed: int = 0,
    batch_accesses: int = 256,
    scheduler_config: Optional[SchedulerConfig] = None,
    max_mappings: Optional[int] = None,
    backend: str = "exact",
    estimator: Optional[TMapping[str, Any]] = None,
) -> Dict[Mapping, Dict[str, float]]:
    """User time of every task under every balanced mapping (Table 1).

    This driver runs live tasks in process, for inputs no run spec can
    describe (the adversary report's generators, figure 14's shared
    phase-2 table); the returned dict is keyed by tid-space mappings.

    For larger machines the balanced-mapping count explodes (105 for 8
    tasks on 4 cores); *max_mappings* caps the measured set to a
    deterministic random sample — best/worst are then over the sampled
    reference set, which EXPERIMENTS.md notes explicitly.

    *backend* selects the simulation backend for every measurement
    (``"exact"``, ``"analytical"`` or ``"sampled"``); *estimator*
    optionally carries :class:`~repro.estimate.options.EstimatorOptions`
    kwargs for the estimate backends.
    """
    mappings = _sample_mappings(
        balanced_mappings([t.tid for t in tasks], machine.num_cores),
        seed,
        max_mappings,
    )
    times: Dict[Mapping, Dict[str, float]] = {}
    for mapping in mappings:
        if backend == "exact":
            result = run_mix(
                machine,
                tasks,
                mapping=mapping,
                batch_accesses=batch_accesses,
                scheduler_config=scheduler_config,
            )
        else:
            result, _ = estimate_mix(
                machine,
                tasks,
                backend=backend,
                mapping=mapping,
                scheduler_config=scheduler_config,
                batch_accesses=batch_accesses,
                options=EstimatorOptions.from_dict(estimator),
            )
        times[mapping] = {t.name: result.user_time(t.name) for t in tasks}
    return times


@dataclass(frozen=True)
class MixResult:
    """Outcome of the two-phase methodology for one mix.

    Mappings are in the driver's index space: task ``i`` is the ``i``-th
    name (for multithreaded apps, threads are numbered in application
    order). ``degradations`` carries phase 1's structured degradation
    events —
    non-empty exactly when the signature failed its health checks (or
    phase 1 itself crashed in keep-going mode) and the mix fell back to
    the default schedule.
    """

    names: Tuple[str, ...]
    mapping_times: Dict[Mapping, Dict[str, float]]
    chosen_mapping: Mapping
    default_mapping: Mapping
    decisions: Tuple[Mapping, ...] = ()
    degradations: Tuple[Dict[str, Any], ...] = ()

    def time(self, mapping: Mapping, name: str) -> float:
        """User time of *name* under a specific mapping."""
        return self.mapping_times[mapping.canonical()][name]

    def worst_time(self, name: str) -> float:
        """The benchmark's worst user time over all mappings."""
        return max(times[name] for times in self.mapping_times.values())

    def best_time(self, name: str) -> float:
        """The benchmark's best user time over all mappings."""
        return min(times[name] for times in self.mapping_times.values())

    def chosen_time(self, name: str) -> float:
        """User time under the schedule the policy chose."""
        return self.time(self.chosen_mapping, name)

    def improvement(self, name: str) -> float:
        """Chosen-schedule gain over the worst case (the paper's metric)."""
        worst = self.worst_time(name)
        return (worst - self.chosen_time(name)) / worst

    def oracle_improvement(self, name: str) -> float:
        """Best achievable gain (upper bound on any policy)."""
        worst = self.worst_time(name)
        return (worst - self.best_time(name)) / worst

    def regret(self, name: str) -> float:
        """How far the chosen schedule is from the oracle."""
        return self.oracle_improvement(name) - self.improvement(name)


def _phase1_scheduler_default(machine: MachineConfig) -> SchedulerConfig:
    """The standard phase-1 scheduler (long quanta, smoothed contexts).

    Phase-1 quanta must be long enough for each task to re-fault its
    working set (so the RBV occupancy reflects the footprint, the Figure 5
    premise) yet short enough for many samples; smoothing stabilises the
    allocator against quantum-to-quantum noise.
    """
    return SchedulerConfig(
        num_cores=machine.num_cores,
        timeslice_cycles=8_000_000.0,
        context_smoothing=0.6,
    )


class _TwoPhasePlan:
    """One mix's two-phase methodology as a batch of run specs.

    The plan submits the phase-1 (signature-gathering) spec and every
    phase-2 reference-mapping spec *together* — phase 2 measures the full
    reference set regardless of phase 1's outcome, so there is no
    sequential dependency and a whole sweep's plans can share one batch.
    Only the rare "chosen mapping outside the reference set" measurement
    needs a second round, surfaced by :meth:`resolve`.

    The policy is rebuilt from its declarative form for each plan, so a
    stateful policy (the interference policies advance an invocation
    counter that feeds their tie-break seeds) starts fresh per mix, and a
    mix's result depends only on its own arguments.

    *kind* is the workload kind; ``"vm"`` workloads take the *overhead*
    dict in both phases. The reference set is every balanced mapping of
    the named tasks (capped by *max_mappings*) and the default is
    round-robin, unless *mappings* and *default* say otherwise. Times are
    recorded per process index: name ``i`` is process ``i``.
    """

    def __init__(
        self,
        machine: MachineConfig,
        names: Sequence[str],
        policy,
        *,
        kind: str = "spec",
        instructions: int = DEFAULT_INSTRUCTIONS,
        seed: int = 0,
        batch_accesses: int = 256,
        monitor_interval: float = 8_000_000.0,
        signature_overrides: Optional[dict] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        phase1_scheduler: Optional[SchedulerConfig] = None,
        phase1_min_wall: float = 160_000_000.0,
        apply_during_phase1: bool = True,
        max_mappings: Optional[int] = None,
        faults: Optional[TMapping[str, Any]] = None,
        overhead: Optional[TMapping[str, Any]] = None,
        backend: str = "exact",
        estimator: Optional[TMapping[str, Any]] = None,
        mappings: Optional[List[Mapping]] = None,
        default: Optional[Mapping] = None,
    ):
        self.names = tuple(names)
        self.machine = machine
        self.seed = seed
        self.batch_accesses = batch_accesses
        self.scheduler_config = scheduler_config
        self.overhead = overhead
        # Phase 1 needs the exact engine (signature hardware + monitor);
        # the backend applies to phase-2 measurements only.
        self.backend = backend
        self.estimator = estimator
        self.workload = WorkloadSpec(
            kind=kind, names=self.names, instructions=instructions, seed=seed
        )
        policy_name, policy_kwargs = policy_to_spec(policy)
        monitor = MonitorSpec.make(
            policy_name,
            policy_kwargs,
            interval_cycles=monitor_interval,
            apply=apply_during_phase1,
        )
        phase1_spec = make_run_spec(
            machine,
            self.workload,
            monitor=monitor,
            signature=default_signature_config(
                machine, **(signature_overrides or {})
            ),
            scheduler=phase1_scheduler or _phase1_scheduler_default(machine),
            overhead=overhead,
            seed=seed,
            batch_accesses=batch_accesses,
            min_wall_cycles=phase1_min_wall,
            faults=faults,
        )
        self.mappings = mappings or _sample_mappings(
            balanced_mappings(list(range(len(self.names))), machine.num_cores),
            seed,
            max_mappings,
        )
        self.specs = [phase1_spec] + [
            self._measure_spec(m) for m in self.mappings
        ]
        self.default = default or _default_index_mapping(
            len(self.names), machine.num_cores
        )
        self.chosen: Optional[Mapping] = None
        self.decisions: Tuple[Mapping, ...] = ()
        self.mapping_times: Dict[Mapping, Dict[str, float]] = {}
        #: Phase-1 degradation events (health-check fallbacks, or a
        #: synthesized event when phase 1 itself failed in keep-going mode).
        self.degradation_events: Tuple[Dict[str, Any], ...] = ()
        #: Set when the mix cannot produce a result (keep-going sweeps).
        self.failure: Optional[MixFailure] = None

    def _measure_spec(self, mapping: Mapping):
        """The phase-2 measurement spec of one index-space mapping."""
        return make_run_spec(
            self.machine,
            self.workload,
            mapping=[sorted(g) for g in mapping.groups],
            scheduler=self.scheduler_config,
            overhead=self.overhead,
            seed=self.seed,
            batch_accesses=self.batch_accesses,
            backend=self.backend,
            estimator=self.estimator,
        )

    def _times(self, outcome) -> Dict[str, float]:
        return {
            name: outcome.process_time(i) for i, name in enumerate(self.names)
        }

    def resolve(self, outcomes):
        """Consume this plan's slice of batch outcomes.

        Returns the extra measurement spec needed when the chosen mapping
        fell outside the reference set, else ``None``.

        Keep-going sweeps hand this method :class:`JobFailure` slots. A
        failed phase 1 degrades the mix to the default schedule (with a
        synthesized degradation event); failed phase-2 measurements drop
        out of the reference set; a mix whose *entire* reference set
        failed is marked via :attr:`failure` and produces no result.
        """
        phase1 = outcomes[0]
        if isinstance(phase1, JobFailure):
            self.decisions = ()
            self.chosen = self.default
            self.degradation_events = (
                {
                    "action": "fallback-default-mapping",
                    "reason": f"phase-1 run failed: {phase1.error}",
                },
            )
        else:
            self.decisions = tuple(phase1.decisions_mappings())
            self.chosen = (
                phase1.majority_mapping() or self.default
            ).canonical()
            self.degradation_events = tuple(phase1.degradations)
        self.mapping_times = {}
        measurement_errors: List[str] = []
        for m, out in zip(self.mappings, outcomes[1:]):
            if isinstance(out, JobFailure):
                measurement_errors.append(out.error)
                continue
            self.mapping_times[m] = self._times(out)
        if not self.mapping_times:
            self.failure = MixFailure(
                mix=self.names,
                error="all phase-2 measurements failed: "
                + "; ".join(sorted(set(measurement_errors))),
            )
            return None
        if self.chosen not in self.mapping_times:
            return self._measure_spec(self.chosen)
        return None

    def finish(self, extra=None) -> Optional[MixResult]:
        """Assemble the :class:`MixResult` (after any extra measurement).

        Returns ``None`` when the mix produced no usable result (the
        cause is then recorded in :attr:`failure`).
        """
        if self.failure is not None:
            return None
        if extra is not None:
            if isinstance(extra, JobFailure):
                self.failure = MixFailure(
                    mix=self.names,
                    error=f"chosen-mapping measurement failed: {extra.error}",
                    attempts=extra.attempts,
                    wall_time=extra.wall_time,
                )
                return None
            self.mapping_times[self.chosen] = self._times(extra)
        return MixResult(
            names=self.names,
            mapping_times=self.mapping_times,
            chosen_mapping=self.chosen,
            default_mapping=self.default,
            decisions=self.decisions,
            degradations=self.degradation_events,
        )


def _run_plans(
    plans: Sequence[_TwoPhasePlan], orchestrator, keep_going: bool = False
) -> SweepResult:
    """Execute two-phase plans; return their :class:`SweepResult`.

    Every plan's specs go out as one batch, each plan resolves its slice,
    and the chosen mappings outside their reference sets are measured in
    one follow-up batch. ``None`` for *orchestrator* means an in-process
    one (keep-going when *keep_going* is set) with no result cache. A mix
    that produced no result raises :class:`~repro.errors.SimulationError`,
    or with *keep_going* is recorded in the sweep's failure report.
    """
    orchestrator = orchestrator or Orchestrator(jobs=1, keep_going=keep_going)
    outcomes = iter(
        orchestrator.run_specs([spec for plan in plans for spec in plan.specs])
    )
    extra_specs = [
        plan.resolve([next(outcomes) for _ in plan.specs]) for plan in plans
    ]
    pending = [spec for spec in extra_specs if spec is not None]
    extras = iter(orchestrator.run_specs(pending) if pending else ())
    sweep = SweepResult()
    for plan, extra_spec in zip(plans, extra_specs):
        result = plan.finish(None if extra_spec is None else next(extras))
        if result is None:
            if not keep_going:
                raise SimulationError(
                    f"mix {'+'.join(plan.names)} failed: {plan.failure.error}"
                )
            sweep.failures.add_failure(plan.failure)
            continue
        sweep.add(result)
    return sweep


def two_phase(
    machine: MachineConfig,
    names: Sequence[str],
    policy,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    batch_accesses: int = 256,
    monitor_interval: float = 8_000_000.0,
    signature_overrides: Optional[dict] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    phase1_scheduler: Optional[SchedulerConfig] = None,
    phase1_min_wall: float = 160_000_000.0,
    apply_during_phase1: bool = True,
    max_mappings: Optional[int] = None,
    orchestrator=None,
    faults: Optional[TMapping[str, Any]] = None,
    backend: str = "exact",
    estimator: Optional[TMapping[str, Any]] = None,
) -> MixResult:
    """The full Section 4 methodology for one mix.

    Phase 1 (the paper's Simics emulation): run under default placement
    with the signature unit attached; the monitor invokes *policy* every
    ``monitor_interval`` cycles; the majority decision is the chosen
    schedule. Phase 2 (the paper's real-machine runs): measure every
    balanced mapping and report the chosen one's improvement over each
    benchmark's worst case.

    Both phases are run specs submitted as one batch (phase 2's reference
    set does not depend on phase 1's outcome) through *orchestrator*, or
    an in-process one when it is ``None``. *policy* must be one of
    :data:`~repro.jobs.spec.POLICY_REGISTRY`'s classes; anything else
    raises :class:`~repro.errors.ConfigurationError`.

    *faults* is an optional signature fault-injection plan (the dict form
    of a :class:`~repro.faults.injectors.SignatureFaultInjector`) applied
    to phase 1 only — phase 2 measures clean hardware. An injected fault
    the monitor detects degrades the mix to the default schedule and the
    events land in ``MixResult.degradations``.

    *backend* selects the simulation backend for phase-2 measurements
    (phase 1 always runs exact — the signature hardware and monitor need
    the real event stream); *estimator* carries optional
    :class:`~repro.estimate.options.EstimatorOptions` kwargs.
    """
    plan = _TwoPhasePlan(
        machine,
        names,
        policy,
        instructions=instructions,
        seed=seed,
        batch_accesses=batch_accesses,
        monitor_interval=monitor_interval,
        signature_overrides=signature_overrides,
        scheduler_config=scheduler_config,
        phase1_scheduler=phase1_scheduler,
        phase1_min_wall=phase1_min_wall,
        apply_during_phase1=apply_during_phase1,
        max_mappings=max_mappings,
        faults=faults,
        backend=backend,
        estimator=estimator,
    )
    return _run_plans([plan], orchestrator).mix_results[0]


# ---------------------------------------------------------------------------
# Figures 10/11: sweep over mixes
# ---------------------------------------------------------------------------
@dataclass
class SweepResult:
    """Per-benchmark improvements across a set of mixes.

    ``failures`` aggregates what keep-going sweeps salvaged: failed mixes
    (no result at all) and degraded mixes (completed on the default-
    schedule fallback). Fail-fast sweeps leave it empty-but-for-
    degradations, since a failure aborts the sweep instead.
    """

    improvements: Dict[str, List[float]] = field(default_factory=dict)
    mix_results: List[MixResult] = field(default_factory=list)
    failures: FailureReport = field(default_factory=FailureReport)

    def add(self, result: MixResult) -> None:
        """Fold one mix's result into the per-benchmark aggregates.

        Degraded mixes still count toward the improvements (their chosen
        schedule is the default), and are additionally recorded in the
        failure report so they can be named.
        """
        self.mix_results.append(result)
        for name in result.names:
            self.improvements.setdefault(name, []).append(
                result.improvement(name)
            )
        if result.degradations:
            self.failures.add_degradation(
                MixDegradation(mix=result.names, events=result.degradations)
            )

    def max_improvement(self, name: str) -> float:
        """The paper's left bars (Figures 10-12)."""
        return max(self.improvements[name])

    def avg_improvement(self, name: str) -> float:
        """The paper's right bars."""
        return float(np.mean(self.improvements[name]))

    def benchmarks(self) -> List[str]:
        """Benchmarks seen across the sweep, sorted."""
        return sorted(self.improvements)

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """name -> (max, avg) improvement."""
        return {
            name: (self.max_improvement(name), self.avg_improvement(name))
            for name in self.benchmarks()
        }


def stratified_mixes(
    pool: Sequence[str],
    mixes_per_benchmark: int = 8,
    mix_size: int = 4,
    seed: int = 0,
) -> List[Tuple[str, ...]]:
    """A deterministic subset of mixes covering every benchmark evenly.

    The paper runs all C(12,4)=495 mixes on hardware; the default harness
    samples so each pool member appears in at least *mixes_per_benchmark*
    mixes (set the env knob REPRO_FULL=1 in the benches for the full sweep).
    """
    if mix_size > len(pool):
        raise ConfigurationError("mix_size exceeds pool size")
    rng = make_rng(seed)
    pool = sorted(pool)
    counts = {name: 0 for name in pool}
    mixes: List[Tuple[str, ...]] = []
    seen = set()
    # Round-robin: repeatedly give the least-covered benchmark a new mix.
    while min(counts.values()) < mixes_per_benchmark:
        anchor = min(pool, key=lambda n: counts[n])
        others = [n for n in pool if n != anchor]
        for _ in range(200):
            partners = tuple(
                sorted(rng.choice(others, size=mix_size - 1, replace=False))
            )
            mix = tuple(sorted((anchor, *partners)))
            if mix not in seen:
                break
        else:  # pool exhausted of fresh mixes for this anchor
            break
        seen.add(mix)
        mixes.append(mix)
        for name in mix:
            counts[name] += 1
    return mixes


def _faults_for(
    faults, mix: Sequence[str]
) -> Optional[TMapping[str, Any]]:
    """Resolve the fault plan applying to one mix.

    *faults* is either ``None``, a single injector dict (``"kind"`` key
    present — applied to every mix), or a mapping from mix tuples to
    injector dicts (per-mix plans; absent mixes run fault-free).
    """
    if faults is None:
        return None
    if "kind" in faults:
        return faults
    return faults.get(tuple(mix))


def mix_sweep(
    machine: MachineConfig,
    mixes: Sequence[Sequence[str]],
    policy,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    batch_accesses: int = 256,
    orchestrator=None,
    keep_going: bool = False,
    faults=None,
    **two_phase_kwargs,
) -> SweepResult:
    """Run the two-phase methodology over many mixes (Figure 10/11 data).

    Mix ``i`` is :func:`two_phase` at seed ``seed + i``. Every mix's
    phase-1 and phase-2 specs are concatenated into a single batch — the
    whole sweep fans out at once — followed by at most one small batch
    for chosen-outside-reference measurements. Results are identical for
    any worker count.

    With ``keep_going=True`` a failing mix does not abort the sweep: its
    error is salvaged into ``SweepResult.failures`` and every other mix
    still completes. A passed *orchestrator* must then be constructed
    with ``keep_going=True`` too; the default in-process one is. *faults*
    injects signature faults into phase 1 — either one injector dict for
    every mix or a ``{mix tuple: dict}`` mapping for per-mix plans; mixes
    whose signature degrades fall back to the default schedule and are
    named in the failure report.
    """
    plans = [
        _TwoPhasePlan(
            machine,
            mix,
            policy,
            instructions=instructions,
            seed=seed + i,
            batch_accesses=batch_accesses,
            faults=_faults_for(faults, tuple(mix)),
            **two_phase_kwargs,
        )
        for i, mix in enumerate(mixes)
    ]
    return _run_plans(plans, orchestrator, keep_going)


# ---------------------------------------------------------------------------
# Figure 12: multithreaded two-phase
# ---------------------------------------------------------------------------
def parsec_two_phase(
    machine: MachineConfig,
    app_names: Sequence[str],
    instructions_per_thread: int = DEFAULT_INSTRUCTIONS // 2,
    seed: int = 0,
    batch_accesses: int = 256,
    monitor_interval: float = 8_000_000.0,
    method: str = "auto",
    scheduler_config: Optional[SchedulerConfig] = None,
    phase1_scheduler: Optional[SchedulerConfig] = None,
    phase1_min_wall: float = 160_000_000.0,
    orchestrator=None,
) -> MixResult:
    """Two-phase methodology for a mix of multithreaded applications.

    Phase 2's reference set is the whole-process balanced mappings (each
    application's threads kept together, applications paired per core) plus
    the default placement — exhaustive thread-level enumeration is
    intractable (C(16,8)/2 mappings), and the paper's reported baseline is
    likewise schedule-level. Improvements are per *application* user time
    (slowest thread's first completion).

    Mappings are in flat thread-index space: application ``i`` owns the
    contiguous range after its predecessors' threads, the build order of
    :func:`~repro.perf.runner.build_parsec_processes`. Phase 1 and the
    whole reference set run as one batch through *orchestrator* (default:
    in-process).
    """
    spans: List[range] = []
    start = 0
    for name in app_names:
        count = parsec_profile(name).threads
        spans.append(range(start, start + count))
        start += count
    default = _default_index_mapping(start, machine.num_cores)
    mappings = [
        canonical_mapping(
            [[i for app in sorted(g) for i in spans[app]]
             for g in proc_mapping.groups]
        )
        for proc_mapping in balanced_mappings(
            list(range(len(spans))), machine.num_cores
        )
    ]
    if default not in mappings:
        mappings.append(default)
    plan = _TwoPhasePlan(
        machine,
        app_names,
        TwoPhasePolicy(method=method, seed=seed),
        kind="parsec",
        instructions=instructions_per_thread,
        seed=seed,
        batch_accesses=batch_accesses,
        monitor_interval=monitor_interval,
        scheduler_config=scheduler_config,
        phase1_scheduler=phase1_scheduler,
        phase1_min_wall=phase1_min_wall,
        mappings=mappings,
        default=default,
    )
    return _run_plans([plan], orchestrator).mix_results[0]
