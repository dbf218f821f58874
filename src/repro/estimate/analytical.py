"""Closed-form co-run miss-rate and user-time prediction.

The analytical backend composes the per-task :class:`ReuseProfile`\\ s
into a shared-cache performance prediction without simulating a single
interleaved reference (the Barai-style reuse-distance composition,
adapted to this simulator's timing and restart semantics):

1. **Pressure.** A reuse of task *t* with reuse time ``rt`` (own
   references) survives in the cache iff the *total* data volume touched
   meanwhile still fits. That volume is ``V(rt) = fp_t(rt) +
   Σ_j fp_ext_j(rt · ρ_j)`` where ``ρ_j`` converts *t*'s reference count
   into co-runner *j*'s over the same wall-clock span, and ``fp_ext``
   extends *j*'s footprint across restarts (fresh address slices).
2. **Conflict model.** The cache is set-associative, not fully
   associative: with volume ``V`` spread over ``S`` sets, the occupancy
   of *t*'s set is ~Poisson(``V/S``) and the reuse misses when at least
   ``W`` (ways) intervening blocks land in it —
   ``p_miss = P(Poisson(V/S) ≥ W) = gammainc(W, V/S)``.
3. **Timing fixed point.** Miss rates determine cycles-per-access
   (through the machine's :class:`~repro.perf.timing.TimingModel`,
   including the shared-bus queue term), which determine the relative
   rates ``ρ``, which determine miss rates. A handful of damped
   iterations converges far inside the model error.

Grouped mappings (several tasks per core) are handled uniformly: a task
in a group of ``g`` runs ``1/g`` of its core's wall time, so one of its
reuses spans ``rt · cpa_t · g_t`` wall cycles and every co-runner *j*
(same core or not) issues ``ρ_j = (cpa_t · g_t)/(cpa_j · g_j)``
references per reference of *t*. Same-core tasks contribute cache
pressure but not bus queueing (they never execute concurrently), exactly
mirroring the simulator's ``other_intensity`` accounting.

Accuracy (validated against the exact simulator, see
``benchmarks/bench_estimate_accuracy.py``): solo miss rates match to
~1e-3; directed pairwise degradations have mean absolute error ~0.003
across the SPEC pool at 1M instructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammainc

from repro.errors import ConfigurationError
from repro.estimate.options import EstimatorOptions
from repro.estimate.reuse import ReuseProfile, profile_task
from repro.perf.experiment import PairwiseResult
from repro.perf.machine import MachineConfig
from repro.perf.runner import DEFAULT_INSTRUCTIONS, build_tasks
from repro.perf.simulator import SimulationResult, TaskResult
from repro.sched.affinity import Mapping
from repro.sched.process import SimTask

__all__ = [
    "TaskPrediction",
    "MappingPrediction",
    "AnalyticalModel",
    "analytical_simulation",
    "predicted_pairwise",
]


@dataclass(frozen=True)
class TaskPrediction:
    """Predicted steady-state behaviour of one task in one placement."""

    index: int
    name: str
    miss_rate: float
    cycles_per_access: float
    #: Own execution cycles to first completion (the quantity the paper's
    #: "user time" measures — wall time excluded while other tasks run).
    user_cycles: float


@dataclass(frozen=True)
class MappingPrediction:
    """Prediction for one whole mapping (groups of profile indices)."""

    groups: Tuple[Tuple[int, ...], ...]
    tasks: Tuple[TaskPrediction, ...]
    wall_cycles: float
    l2_miss_rate: float

    def task(self, name: str) -> TaskPrediction:
        """Look up a prediction by task name (first match)."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r}")

    def user_time(self, name: str) -> float:
        """Predicted user time of the named task."""
        return self.task(name).user_cycles


def _validate_machine(machine: MachineConfig) -> None:
    """Reject machine features the closed-form model cannot express."""
    if machine.l1 is not None:
        raise ConfigurationError(
            "the analytical backend models the L2 reference stream "
            "directly and cannot compose private L1 filtering; use the "
            "exact or sampled backend for L1-bearing machines"
        )


class AnalyticalModel:
    """Composes task reuse profiles into mapping-level predictions.

    Parameters
    ----------
    machine:
        The platform (shared or private L2; L1-less).
    profiles:
        One :class:`ReuseProfile` per task, in task-index order.
    options:
        Estimator knobs; only ``reuse_bins`` and
        ``fixed_point_iterations`` are consumed here.
    """

    def __init__(
        self,
        machine: MachineConfig,
        profiles: Sequence[ReuseProfile],
        options: Optional[EstimatorOptions] = None,
    ):
        if not profiles:
            raise ConfigurationError("need at least one reuse profile")
        _validate_machine(machine)
        self.machine = machine
        self.profiles = list(profiles)
        self.options = options or EstimatorOptions()
        geometry = machine.l2.geometry
        self._sets = geometry.num_sets
        self._ways = geometry.ways
        self._solo: Dict[int, TaskPrediction] = {}
        # Compress each profile's reuse times into count-weighted
        # log-spaced bins: the footprint curve is smooth, so evaluating
        # it at a bin's mean reuse time instead of every member costs
        # well under the model's own error while making a prediction
        # O(reuse_bins) per task — the property that lets one profiling
        # pass amortise over hundreds of predicted mappings.
        self._reuse_values: List[np.ndarray] = []
        self._reuse_weights: List[np.ndarray] = []
        # The volume a task's own references add between two of its
        # reuses depends on its profile alone, so it is computed once
        # per model; every prediction only adds co-runner pressure to it
        # (into new arrays: these are shared across predictions).
        self._own_volume: List[np.ndarray] = []
        for prof in self.profiles:
            values, weights = prof.binned_reuses(self.options.reuse_bins)
            self._reuse_values.append(values)
            self._reuse_weights.append(weights)
            self._own_volume.append(
                prof.footprint(np.minimum(values, prof.refs).astype(np.int64))
            )

    # -- building blocks ------------------------------------------------
    def _miss_rate(self, index: int, volume: np.ndarray) -> float:
        """Expected miss rate of one task given the data volume touched
        between each of its (binned) reuses.

        Every first touch of a block misses; a reuse misses with the
        conflict model's probability at its volume.
        """
        prof = self.profiles[index]
        if len(volume) == 0:  # no reuses: every reference is a first touch
            return 1.0
        p_miss = gammainc(self._ways, volume / self._sets)
        reuses = p_miss @ self._reuse_weights[index]
        return float((prof.distinct_blocks + reuses) / prof.refs)

    def _cycles_per_access(
        self, index: int, miss_rate: float, other_intensity: float
    ) -> float:
        """Mean cycles charged per L2 reference of one task."""
        prof = self.profiles[index]
        timing = self.machine.timing
        instructions_per_access = 1000.0 / prof.accesses_per_kinstr
        return (
            instructions_per_access * timing.cpi_base
            + (1.0 - miss_rate) * timing.l2_hit_cycles
            + miss_rate * timing.miss_cycles(prof.mlp, other_intensity)
            + timing.per_access_cycles
        )

    # -- predictions ----------------------------------------------------
    def predict_solo(self, index: int) -> TaskPrediction:
        """The task alone on the machine (degradation baseline)."""
        if index not in self._solo:
            prof = self.profiles[index]
            mr = self._miss_rate(index, self._own_volume[index])
            cpa = self._cycles_per_access(index, mr, 0.0)
            self._solo[index] = TaskPrediction(
                index=index,
                name=prof.name,
                miss_rate=mr,
                cycles_per_access=cpa,
                user_cycles=cpa * prof.total_refs,
            )
        return self._solo[index]

    def predict(
        self, groups: Sequence[Sequence[int]]
    ) -> MappingPrediction:
        """Predict every task's co-run behaviour under one mapping.

        *groups* assigns profile indices to cores by position (the run
        spec's mapping convention); every profile index must appear
        exactly once, on a core the machine has. Empty groups past the
        last core are accepted, as the exact engine accepts them.
        """
        norm = tuple(tuple(sorted(int(i) for i in g)) for g in groups)
        members = [i for g in norm for i in g]
        if sorted(members) != list(range(len(self.profiles))):
            raise ConfigurationError(
                f"mapping {norm} must place each of {len(self.profiles)} "
                "tasks exactly once"
            )
        for core, group in enumerate(norm):
            if group and core >= self.machine.num_cores:
                raise ConfigurationError(
                    f"mapping {norm} places tasks on core {core} of a "
                    f"{self.machine.num_cores}-core machine"
                )
        core_of = {i: c for c, g in enumerate(norm) for i in g}
        gsize = {i: len(norm[core_of[i]]) for i in members}

        # Seed the fixed point with solo behaviour.
        mr = {i: self.predict_solo(i).miss_rate for i in members}
        cpa = {i: self.predict_solo(i).cycles_per_access for i in members}
        # Each co-runner's footprint_extended serves every task it
        # pressures in one batched evaluation — the fixed point costs a
        # handful of array calls per iteration, not one per task pair.
        pressured = {
            j: [
                i
                for i in members
                if i != j
                and (self.machine.shared_l2 or core_of[i] == core_of[j])
            ]
            for j in members
        }
        for _ in range(self.options.fixed_point_iterations):
            volume = {i: self._own_volume[i] for i in members}
            for j in members:
                targets = pressured[j]
                if not targets:
                    continue
                queries = [
                    self._reuse_values[i]
                    * ((cpa[i] * gsize[i]) / (cpa[j] * gsize[j]))
                    for i in targets
                ]
                contributions = self.profiles[j].footprint_extended(
                    np.concatenate(queries)
                )
                offset = 0
                for i, query in zip(targets, queries):
                    volume[i] = volume[i] + contributions[
                        offset : offset + len(query)
                    ]
                    offset += len(query)
            mr = {i: self._miss_rate(i, volume[i]) for i in members}
            new_cpa = {}
            for i in members:
                other = sum(
                    mr[j] / (cpa[j] * gsize[j])
                    for j in members
                    if core_of[j] != core_of[i]
                )
                new_cpa[i] = self._cycles_per_access(i, mr[i], other)
            cpa = new_cpa

        tasks = tuple(
            TaskPrediction(
                index=i,
                name=self.profiles[i].name,
                miss_rate=mr[i],
                cycles_per_access=cpa[i],
                user_cycles=cpa[i] * self.profiles[i].total_refs,
            )
            for i in sorted(members)
        )
        by_index = {t.index: t for t in tasks}
        wall = max(
            (sum(by_index[i].user_cycles for i in g) for g in norm if g),
            default=0.0,
        )
        total_refs = sum(self.profiles[i].refs for i in members)
        agg = (
            sum(mr[i] * self.profiles[i].refs for i in members) / total_refs
            if total_refs
            else 0.0
        )
        return MappingPrediction(
            groups=norm, tasks=tasks, wall_cycles=wall, l2_miss_rate=agg
        )


def analytical_simulation(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    *,
    mapping: Optional[Mapping] = None,
    options: Optional[EstimatorOptions] = None,
) -> SimulationResult:
    """Predict a mix analytically, packaged as a |SimulationResult|.

    The drop-in replacement for the exact
    :meth:`~repro.perf.simulator.MulticoreSimulator.run` on plain
    measurement runs: same result type, no interleaved simulation. The
    mapping (tid groups, like the simulator's) defaults to round-robin
    placement in task order.

    .. |SimulationResult| replace::
       :class:`~repro.perf.simulator.SimulationResult`
    """
    options = options or EstimatorOptions()
    profiles = [profile_task(t, options.profile_refs) for t in tasks]
    model = AnalyticalModel(machine, profiles, options)
    tid_to_index = {t.tid: i for i, t in enumerate(tasks)}
    if mapping is None:
        groups: List[List[int]] = [[] for _ in range(machine.num_cores)]
        for i in range(len(tasks)):
            groups[i % machine.num_cores].append(i)
    else:
        unknown = sorted(mapping.task_ids - tid_to_index.keys())
        if unknown:
            raise ConfigurationError(f"mapping names unknown task {unknown[0]}")
        groups = [
            [tid_to_index[tid] for tid in g] for g in mapping.groups
        ]
    prediction = model.predict(groups)
    by_index = {t.index: t for t in prediction.tasks}
    return SimulationResult(
        machine=machine.name,
        wall_cycles=prediction.wall_cycles,
        tasks=[
            TaskResult(
                name=task.name,
                tid=task.tid,
                process_id=task.process_id,
                first_completion_cycles=by_index[i].user_cycles,
                user_cycles=by_index[i].user_cycles,
                completions=1,
                context_switches=0,
            )
            for i, task in enumerate(tasks)
        ],
        l2_miss_rate=prediction.l2_miss_rate,
    )


def predicted_pairwise(
    machine: MachineConfig,
    names: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    options: Optional[EstimatorOptions] = None,
) -> PairwiseResult:
    """Analytical stand-in for :func:`~repro.perf.experiment.pairwise_shared`.

    Profiles each benchmark once, then predicts the solo baseline and
    every pair's co-run user times — the
    :class:`~repro.perf.experiment.PairwiseResult` feeds the existing
    degradation-matrix consumers unchanged. Cost is one profiling pass
    per benchmark plus closed-form arithmetic per pair, versus
    ``n + C(n,2)`` full simulations on the exact path.
    """
    options = options or EstimatorOptions()
    ordered = sorted(names)
    solo_times: Dict[str, float] = {}
    pair_times: Dict[Tuple[str, str], Dict[str, float]] = {}
    profiles: Dict[str, ReuseProfile] = {}
    for name in ordered:
        # Match the exact path's build: each benchmark profiled from the
        # same task a solo run would construct.
        task = build_tasks([name], instructions=instructions, seed=seed)[0]
        profiles[name] = profile_task(task, options.profile_refs)
        solo = AnalyticalModel(
            machine, [profiles[name]], options
        ).predict_solo(0)
        solo_times[name] = solo.user_cycles
    for a, b in itertools.combinations(ordered, 2):
        model = AnalyticalModel(
            machine, [profiles[a], profiles[b]], options
        )
        if machine.shared_l2 and machine.num_cores >= 2:
            groups: List[List[int]] = [[0], [1]]
        else:
            groups = [[0, 1]] + [[] for _ in range(machine.num_cores - 1)]
        prediction = model.predict(groups)
        pair_times[(a, b)] = {
            a: prediction.user_time(a),
            b: prediction.user_time(b),
        }
    return PairwiseResult(
        names=tuple(ordered), solo_times=solo_times, pair_times=pair_times
    )
