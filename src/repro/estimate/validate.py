"""Cross-validation of the fast-path backends against exact simulation.

The estimate backends are only useful if the *decisions* they drive
match the decisions exact simulation would drive. This module measures
exactly that, per mix of benchmarks:

1. build the pairwise-degradation matrix from each backend (exact via
   :func:`~repro.perf.experiment.pairwise_shared`, analytical via
   :func:`~repro.estimate.analytical.predicted_pairwise`, sampled via
   :func:`sampled_pairwise`);
2. feed each matrix to three mapping algorithms (greedy weight-sort
   pairing, exhaustive MIN-CUT, solo-time-weighted MIN-CUT) and record
   whether the fast backend's choice is *decision-equivalent* to
   exact's for every algorithm — identical, or costing no more than
   ``tolerance`` extra intra-group interference when priced on the
   **exact** matrix (cache-insensitive mixes tie every mapping; an
   arbitrary tie-break is not a wrong decision);
3. simulate the whole mix under its default mapping once per backend
   and record the aggregate L2 miss-rate error.

:func:`validate_mixes` aggregates this over a mix list into a
:class:`ValidationSummary` whose :meth:`~ValidationSummary.to_dict`
feeds ``benchmarks/bench_estimate_accuracy.py`` and the CI
``estimate-accuracy`` gate (agreement floor + miss-rate MAPE ceiling).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.alloc.mincut import intra_weight, partition_min_cut
from repro.errors import ConfigurationError
from repro.estimate.analytical import analytical_simulation, predicted_pairwise
from repro.estimate.options import EstimatorOptions
from repro.estimate.sampled import sampled_simulation
from repro.perf.experiment import PairwiseResult, pairwise_shared
from repro.perf.machine import MachineConfig
from repro.perf.runner import DEFAULT_INSTRUCTIONS, build_tasks, run_mix
from repro.sched.affinity import Mapping

__all__ = [
    "MixValidation",
    "ValidationSummary",
    "sampled_pairwise",
    "degradation_matrix",
    "candidate_mappings",
    "validate_mixes",
]

#: The mapping algorithms every backend's matrix is pushed through.
MAPPING_ALGORITHMS = ("greedy", "mincut", "weighted")


def sampled_pairwise(
    machine: MachineConfig,
    names: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    options: Optional[EstimatorOptions] = None,
) -> PairwiseResult:
    """Sampled-backend stand-in for :func:`~repro.perf.experiment.pairwise_shared`.

    Solo baselines and every pair run through the sampled backend with
    the same shared-L2 placement (``[[0], [1]]``) as the exact helper,
    so degradations are sampled-vs-sampled (consistent extrapolation
    bias cancels in the ratio).
    """
    options = options or EstimatorOptions()
    ordered = sorted(names)
    solo_times: Dict[str, float] = {}
    for name in ordered:
        tasks = build_tasks([name], instructions=instructions, seed=seed)
        result, _ = sampled_simulation(machine, tasks, options=options)
        solo_times[name] = result.user_time(name)
    pair_times: Dict[Tuple[str, str], Dict[str, float]] = {}
    for a, b in itertools.combinations(ordered, 2):
        tasks = build_tasks([a, b], instructions=instructions, seed=seed)
        result, _ = sampled_simulation(
            machine,
            tasks,
            mapping=Mapping.from_groups([[tasks[0].tid], [tasks[1].tid]]),
            options=options,
        )
        pair_times[(a, b)] = {a: result.user_time(a), b: result.user_time(b)}
    return PairwiseResult(
        names=tuple(ordered), solo_times=solo_times, pair_times=pair_times
    )


def degradation_matrix(
    pairwise: PairwiseResult,
) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Symmetric interference weights from a pairwise sweep.

    ``w[i, j] = deg(i | j) + deg(j | i)`` — the total slowdown the pair
    inflicts on itself when co-located — clipped at zero (a backend may
    predict a tiny negative degradation; the allocators require
    non-negative edges).
    """
    names = pairwise.names
    n = len(names)
    w = np.zeros((n, n), dtype=np.float64)
    for i, j in itertools.combinations(range(n), 2):
        a, b = names[i], names[j]
        weight = pairwise.degradation(a, b) + pairwise.degradation(b, a)
        w[i, j] = w[j, i] = max(weight, 0.0)
    return names, w


def _canonical(groups: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Order-insensitive form of a grouping, for equality tests."""
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def _greedy_pairing(w: np.ndarray) -> List[List[int]]:
    """Weight-sort pairing: heaviest interferer paired with the lightest.

    Tasks are ranked by total interference (row sum); the worst is
    co-located with the mildest remaining, the second-worst with the
    second-mildest, and so on — the paper's sort-and-fold heuristic.
    """
    order = list(np.argsort(-w.sum(axis=1), kind="stable"))
    groups = []
    while order:
        heavy = order.pop(0)
        light = order.pop(-1) if order else heavy
        groups.append(sorted({int(heavy), int(light)}))
    return groups


def _inverted(w: np.ndarray) -> np.ndarray:
    """Flip weights so MIN-CUT splits the heaviest interferers apart.

    ``partition_min_cut`` minimises *cut* weight; co-location cost lives
    on *intra*-group edges, so we cut the complement ``max(w) − w``
    (zero diagonal preserved) — minimising the complement's cut is
    maximising the original's, i.e. minimising intra-group interference.
    """
    top = float(w.max())
    inv = top - w
    np.fill_diagonal(inv, 0.0)
    return inv


def candidate_mappings(
    w: np.ndarray, seed: int = 0
) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
    """All three algorithms' chosen groupings for one weight matrix.

    Returns canonical (order-insensitive) groupings keyed by algorithm
    name; groups are pairs (``num_groups = n // 2`` — the paper's
    dual-core node topology).
    """
    n = w.shape[0]
    if n < 2 or n % 2:
        raise ConfigurationError(
            f"pairing validation needs an even mix size >= 2, got {n}"
        )
    num_groups = n // 2
    greedy = _greedy_pairing(w)
    mincut = partition_min_cut(
        _inverted(w), num_groups, method="exhaustive", seed=seed
    )
    solo_scale = 1.0 + w.sum(axis=1)
    weighted_w = w * np.sqrt(np.outer(solo_scale, solo_scale))
    np.fill_diagonal(weighted_w, 0.0)
    weighted = partition_min_cut(
        _inverted(weighted_w), num_groups, method="exhaustive", seed=seed
    )
    return {
        "greedy": _canonical(greedy),
        "mincut": _canonical(mincut),
        "weighted": _canonical(weighted),
    }


@dataclass(frozen=True)
class MixValidation:
    """One mix's cross-validation record for one backend."""

    mix: Tuple[str, ...]
    backend: str
    agreements: Dict[str, bool]
    exact_miss_rate: float
    estimated_miss_rate: float

    @property
    def agrees(self) -> bool:
        """True when every algorithm was decision-equivalent to exact."""
        return all(self.agreements.values())

    @property
    def miss_rate_error(self) -> float:
        """Absolute miss-rate error of the whole-mix run."""
        return abs(self.estimated_miss_rate - self.exact_miss_rate)


@dataclass(frozen=True)
class ValidationSummary:
    """Aggregate cross-validation outcome over a mix list."""

    records: Tuple[MixValidation, ...]

    def backends(self) -> List[str]:
        """Backends present in the records, sorted."""
        return sorted({r.backend for r in self.records})

    def _of(self, backend: str) -> List[MixValidation]:
        got = [r for r in self.records if r.backend == backend]
        if not got:
            raise ConfigurationError(f"no records for backend {backend!r}")
        return got

    def agreement(self, backend: str) -> Tuple[int, int]:
        """(mixes where every algorithm agreed with exact, total mixes)."""
        records = self._of(backend)
        return sum(r.agrees for r in records), len(records)

    def miss_rate_mape(self, backend: str) -> float:
        """Mean |error| / exact miss rate across mixes, as a fraction."""
        records = self._of(backend)
        return float(
            np.mean(
                [r.miss_rate_error / max(r.exact_miss_rate, 1e-12) for r in records]
            )
        )

    def miss_rate_mae(self, backend: str) -> float:
        """Mean absolute miss-rate error across mixes."""
        return float(np.mean([r.miss_rate_error for r in self._of(backend)]))

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Per-backend summary for bench reports and the CI gate."""
        out: Dict[str, Dict[str, object]] = {}
        for backend in self.backends():
            agreed, total = self.agreement(backend)
            out[backend] = {
                "mixes": total,
                "mapping_agreement": agreed,
                "miss_rate_mape": self.miss_rate_mape(backend),
                "miss_rate_mae": self.miss_rate_mae(backend),
                "disagreeing_mixes": [
                    list(r.mix)
                    for r in self._of(backend)
                    if not r.agrees
                ],
            }
        return out


def _mix_miss_rate(
    machine: MachineConfig,
    mix: Sequence[str],
    backend: str,
    instructions: int,
    seed: int,
    options: EstimatorOptions,
) -> float:
    """Aggregate L2 miss rate of the whole mix under one backend."""
    tasks = build_tasks(list(mix), instructions=instructions, seed=seed)
    if backend == "exact":
        return run_mix(machine, tasks).l2_miss_rate
    if backend == "analytical":
        return analytical_simulation(machine, tasks, options=options).l2_miss_rate
    result, _ = sampled_simulation(machine, tasks, options=options)
    return result.l2_miss_rate


def validate_mixes(
    machine: MachineConfig,
    mixes: Sequence[Sequence[str]],
    *,
    backends: Sequence[str] = ("analytical", "sampled"),
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    tolerance: float = 0.02,
    options: Optional[EstimatorOptions] = None,
) -> ValidationSummary:
    """Cross-validate the fast backends against exact over a mix list.

    An algorithm "agrees" on a mix when the backend's mapping is
    identical to exact's, or prices within *tolerance* extra intra-group
    degradation on the exact matrix (decision-equivalence — see the
    module docstring). Pairwise sweeps are memoised per ``(backend,
    mix)``, so repeated mixes cost nothing extra.
    """
    options = options or EstimatorOptions()
    pairwise_cache: Dict[Tuple[str, Tuple[str, ...]], PairwiseResult] = {}

    def pairwise_for(backend: str, mix: Tuple[str, ...]) -> PairwiseResult:
        key = (backend, mix)
        if key not in pairwise_cache:
            if backend == "exact":
                pairwise_cache[key] = pairwise_shared(
                    machine, mix, instructions=instructions, seed=seed
                )
            elif backend == "analytical":
                pairwise_cache[key] = predicted_pairwise(
                    machine, mix, instructions=instructions, seed=seed,
                    options=options,
                )
            elif backend == "sampled":
                pairwise_cache[key] = sampled_pairwise(
                    machine, mix, instructions=instructions, seed=seed,
                    options=options,
                )
            else:
                raise ConfigurationError(f"unknown backend {backend!r}")
        return pairwise_cache[key]

    records: List[MixValidation] = []
    for raw_mix in mixes:
        mix = tuple(sorted(raw_mix))
        _, exact_w = degradation_matrix(pairwise_for("exact", mix))
        exact_maps = candidate_mappings(exact_w, seed=seed)
        exact_mr = _mix_miss_rate(
            machine, mix, "exact", instructions, seed, options
        )
        for backend in backends:
            _, est_w = degradation_matrix(pairwise_for(backend, mix))
            est_maps = candidate_mappings(est_w, seed=seed)
            agreements = {}
            for algo in MAPPING_ALGORITHMS:
                if est_maps[algo] == exact_maps[algo]:
                    agreements[algo] = True
                    continue
                # Decision-equivalence: price both choices on the exact
                # matrix; an equally-cheap alternative is not an error.
                cost_est = intra_weight(exact_w, est_maps[algo])
                cost_exact = intra_weight(exact_w, exact_maps[algo])
                agreements[algo] = cost_est <= cost_exact + tolerance
            records.append(
                MixValidation(
                    mix=mix,
                    backend=backend,
                    agreements=agreements,
                    exact_miss_rate=exact_mr,
                    estimated_miss_rate=_mix_miss_rate(
                        machine, mix, backend, instructions, seed, options
                    ),
                )
            )
    return ValidationSummary(records=tuple(records))
