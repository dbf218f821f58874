"""The adversarial fairness/robustness harness: :class:`AdversaryReport`.

For each adversary class (see :mod:`repro.adversary.generators`) the
harness builds a mixed workload — adversarial processes co-scheduled
with benign cache-sensitive victims — and scores an allocation policy
through the paper's own two-phase methodology at miniature scale (the
integration-test machine, where a few thousand references exercise the
whole cache):

* **phase 1**: the mix runs under the
  :class:`~repro.alloc.monitor.UserLevelMonitor` with real signature
  hardware attached; the majority decision is the chosen schedule.
* **phase 2**: every balanced mapping is measured exactly; the chosen
  schedule is scored against the per-task best and worst cases.

The *hardened* variant arms the full degradation stack: monitor
confidence thresholds (suspect/unusable verdicts with round-robin
fallback), a tighter saturation fraction, and the
:class:`~repro.estimate.gate.EstimateGate` probe — a mix whose address
streams are signature-aliased (collapsed hash-image ratio) is caught by
the gate, and the harness falls back to the safe round-robin placement
instead of trusting a signature the adversary controls. The
*unhardened* variant is yesterday's stack: it believes whatever the
filter says.

``worst_slowdown`` — the worst per-task ratio of chosen-schedule time
to best-achievable time — is the headline robustness metric: 1.0 means
the schedule is per-task optimal, and the hardened-minus-unhardened
delta is what ``benchmarks/bench_adversary_suite.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary.generators import (
    AliasingGenerator,
    PhaseFlapGenerator,
    SaturatingGenerator,
    ThrashingGenerator,
)
from repro.alloc.monitor import UserLevelMonitor
from repro.errors import ConfigurationError
from repro.estimate.gate import EstimateGate
from repro.perf.experiment import (
    default_mapping_for,
    run_all_mappings,
    _phase1_scheduler_default,
)
from repro.cache.config import CacheConfig, CacheGeometry
from repro.perf.machine import MachineConfig
from repro.perf.runner import default_signature_config, run_mix
from repro.perf.timing import TimingModel
from repro.sched.process import SimTask
from repro.workloads.patterns import HotColdGenerator, PointerChaseGenerator

__all__ = [
    "ADVERSARY_KINDS",
    "HARDENED_DEFAULTS",
    "MixScore",
    "AdversaryReport",
    "VICTIM_NAMES",
    "adversary_machine",
    "adversary_mix",
    "score_adversary_mix",
    "run_adversary_suite",
]

#: Adversary classes the suite scores (``benign`` is the control).
ADVERSARY_KINDS: Tuple[str, ...] = (
    "benign",
    "aliasing",
    "saturating",
    "thrashing",
    "phase_flap",
)

#: The hardened monitor/gate configuration the suite evaluates. One
#: place, so benches, CLI and tests harden identically. The gate is
#: configured alias-only here: a static footprint cannot distinguish a
#: bomb from a large benign working set (mcf's natural region dwarfs any
#: filter), so saturation is left to the monitor's *runtime* confidence
#: path and the gate contributes the one check only it can do — the
#: hash-image collapse of a constructed aliasing stream.
HARDENED_DEFAULTS: Dict[str, float] = {
    # A mini-scale RBV refill ratio above ~0.22 of capacity means the
    # task is churning the filter far faster than any benign resident
    # working set (benign mixes peak near 0.07): flag it suspect.
    "confident_threshold": 0.78,
    # Full degradation only when the filter is effectively opaque.
    "unusable_threshold": 0.2,
    "saturation_fraction": 0.95,
    "gate_min_alias_ratio": 0.05,
}

#: Disjoint block-address slices for mix members (mirrors the runner's
#: per-task stride; adversarial generators with absolute addressing use
#: lanes instead).
_STRIDE_BLOCKS = 1 << 23

#: Names of the benign victims (the fairness metric keys on these).
VICTIM_NAMES: Tuple[str, ...] = ("victim-hot", "victim-chase")


def adversary_machine(cores: int = 2) -> MachineConfig:
    """The suite's miniature target: a 64 KB shared L2 'Core 2 Duo'.

    The same shrunken geometry the integration tests use — small enough
    that a mix of a few thousand references sweeps the whole cache (so
    thrashing, saturation and aliasing are *reachable*), with the real
    timing model so slowdowns are meaningful.
    """
    return MachineConfig(
        name="adversary-mini",
        num_cores=cores,
        l2=CacheConfig(
            name="mini-l2",
            geometry=CacheGeometry(
                size_bytes=64 * 1024, line_bytes=64, ways=8
            ),
        ),
        shared_l2=True,
        timing=TimingModel(),
    )


def _victim_tasks(machine: MachineConfig, instructions: int, seed: int) -> List[SimTask]:
    """The benign cache-sensitive co-runners every adversarial mix preys on.

    One hot/cold process (hot set a quarter of the cache, heavy reuse)
    and one pointer chaser (dependent accesses over a cache-resident
    region) — both run fast with their share of the cache and collapse
    when an attacker evicts it.
    """
    lines = machine.l2.geometry.num_lines
    accesses = max(1, int(instructions * 40.0 / 1000.0))
    return [
        SimTask(
            name=VICTIM_NAMES[0],
            generator=HotColdGenerator(
                max(8, lines // 2),
                max(4, lines // 4),
                hot_fraction=0.9,
                base_block=4 * _STRIDE_BLOCKS,
                seed=seed + 1,
            ),
            total_accesses=accesses,
            accesses_per_kinstr=40.0,
        ),
        SimTask(
            name=VICTIM_NAMES[1],
            generator=PointerChaseGenerator(
                max(8, lines // 4),
                base_block=5 * _STRIDE_BLOCKS,
                seed=seed + 2,
            ),
            total_accesses=accesses,
            accesses_per_kinstr=40.0,
        ),
    ]


def adversary_mix(
    kind: str,
    machine: MachineConfig,
    *,
    instructions: int = 150_000,
    seed: int = 0,
    signature_overrides: Optional[dict] = None,
) -> List[SimTask]:
    """Build one 4-task mix of *kind*: two attackers + two benign victims.

    Attack geometry is constructed against the machine's actual
    signature configuration (filter entry count) and shared-cache size,
    so the same mix definition scales with the target.
    """
    if kind not in ADVERSARY_KINDS:
        raise ConfigurationError(
            f"unknown adversary kind {kind!r}; expected one of {ADVERSARY_KINDS}"
        )
    sig = default_signature_config(machine, **(signature_overrides or {}))
    entries = sig.num_entries
    cache_lines = machine.l2.geometry.num_lines
    apki = 30.0
    accesses = max(1, int(instructions * apki / 1000.0))
    if kind == "benign":
        # Well-behaved co-runners: hot/cold reuse at two different
        # scales, comfortably inside the cache. No detector should fire.
        extras = [
            SimTask(
                name=f"benign-{i}",
                generator=HotColdGenerator(
                    max(8, cache_lines // (2 + 2 * i)),
                    max(4, cache_lines // (8 + 8 * i)),
                    hot_fraction=0.9,
                    base_block=(i + 1) * _STRIDE_BLOCKS,
                    seed=seed + 10 + i,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
            )
            for i in range(2)
        ]
    elif kind == "aliasing":
        # Both twins fold onto one filter index, so after the first
        # observation window their RBV refill weight reads ~zero. In
        # truth the scan twin is a streaming thrasher sweeping most of
        # the cache. A weight-ranking policy files both twins as the
        # lightest tasks, groups the two genuinely-heavy victims
        # together on one core — and the thrasher then co-executes
        # against a victim at every instant (the victim-worst
        # schedule). The hot twin's lane starts where the scan twin's
        # r-range ends (no shared blocks).
        hot_region = min(64, entries // 2)
        scan_region = max(
            hot_region,
            min(entries - hot_region, (7 * cache_lines) // 8),
        )
        hot_lane = -(-scan_region // hot_region)
        extras = [
            SimTask(
                name="alias-scan",
                generator=AliasingGenerator(
                    entries, 37, scan_region, reuse="scan", lane=0,
                    seed=seed + 20,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
                mlp=4.0,
            ),
            SimTask(
                name="alias-hot",
                generator=AliasingGenerator(
                    entries, 37, hot_region, reuse="hot", lane=hot_lane,
                    seed=seed + 21,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
            ),
        ]
    elif kind == "saturating":
        extras = [
            SimTask(
                name=f"bomb-{i}",
                generator=SaturatingGenerator(
                    entries,
                    pressure=4.0,
                    base_block=(i + 1) * _STRIDE_BLOCKS,
                    seed=seed + 30 + i,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
                mlp=4.0,
            )
            for i in range(2)
        ]
    elif kind == "thrashing":
        extras = [
            SimTask(
                name=f"thrash-{i}",
                generator=ThrashingGenerator(
                    cache_lines,
                    overshoot=1.25,
                    base_block=(i + 1) * _STRIDE_BLOCKS,
                    seed=seed + 40 + i,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
                mlp=4.0,
            )
            for i in range(2)
        ]
    else:  # phase_flap
        extras = [
            SimTask(
                name=f"flapper-{i}",
                generator=PhaseFlapGenerator(
                    region_blocks=max(64, cache_lines // 4),
                    period=max(64, accesses // 16),
                    base_block=(i + 1) * _STRIDE_BLOCKS,
                    seed=seed + 50 + i,
                ),
                total_accesses=accesses,
                accesses_per_kinstr=apki,
            )
            for i in range(2)
        ]
    # Attackers first, victims last: the task-order round-robin default
    # (the degradation fallback) then pairs each attacker with one
    # victim. Group-mates *timeshare* — they never execute at the same
    # instant — so this placement caps every attacker's co-execution
    # time against the victims. It is the protective schedule the
    # hardened stack falls back to when it stops trusting signatures.
    return extras + _victim_tasks(machine, instructions, seed)


@dataclass(frozen=True)
class MixScore:
    """One (adversary class, policy, hardening) scoring outcome."""

    adversary: str
    policy: str
    hardened: bool
    #: Worst chosen/best time ratio over ALL tasks (attackers included).
    worst_slowdown: float
    #: Worst chosen/best time ratio over the benign victims only — the
    #: fairness headline: how badly does the schedule punish the
    #: innocent? An attacker slowing *itself* down is not a regression.
    victim_worst_slowdown: float
    avg_improvement: float
    degraded_invocations: int
    suspect_invocations: int
    gate_tripped: bool
    #: Chosen schedule as groups of mix-order task indices (attackers
    #: are 0..1, victims 2..3) — ``SimTask.tid`` values come from a
    #: process-global counter and would differ between runs.
    chosen_groups: Tuple[Tuple[int, ...], ...]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form for bench artifacts."""
        return {
            "adversary": self.adversary,
            "policy": self.policy,
            "hardened": self.hardened,
            "worst_slowdown": self.worst_slowdown,
            "victim_worst_slowdown": self.victim_worst_slowdown,
            "avg_improvement": self.avg_improvement,
            "degraded_invocations": self.degraded_invocations,
            "suspect_invocations": self.suspect_invocations,
            "gate_tripped": self.gate_tripped,
            "chosen_groups": [list(g) for g in self.chosen_groups],
        }


def score_adversary_mix(
    machine: MachineConfig,
    kind: str,
    policy,
    policy_name: str,
    *,
    hardened: bool,
    instructions: int = 150_000,
    seed: int = 0,
    monitor_interval: float = 4_000_000.0,
    phase1_min_wall: float = 40_000_000.0,
    signature_overrides: Optional[dict] = None,
    max_mappings: Optional[int] = None,
) -> MixScore:
    """Score one policy on one adversary class (see module docstring)."""
    tasks = adversary_mix(
        kind,
        machine,
        instructions=instructions,
        seed=seed,
        signature_overrides=signature_overrides,
    )
    sig = default_signature_config(machine, **(signature_overrides or {}))
    gate_tripped = False
    if hardened:
        monitor = UserLevelMonitor(
            policy,
            interval_cycles=monitor_interval,
            apply=True,
            signature_capacity=sig.num_entries,
            saturation_fraction=HARDENED_DEFAULTS["saturation_fraction"],
            num_hashes=sig.num_hashes,
            confident_threshold=HARDENED_DEFAULTS["confident_threshold"],
            unusable_threshold=HARDENED_DEFAULTS["unusable_threshold"],
        )
        # Alias-only configuration (see HARDENED_DEFAULTS): pressure
        # and confidence floors are left open because benign working
        # sets legitimately exceed any static footprint envelope.
        gate = EstimateGate(
            min_confidence=0.0,
            max_pressure=float("inf"),
            min_alias_ratio=HARDENED_DEFAULTS["gate_min_alias_ratio"],
            capacity=sig.num_entries,
            num_hashes=sig.num_hashes,
        )
        gate_tripped = gate.evaluate(machine, tasks) is not None
    else:
        monitor = UserLevelMonitor(
            policy,
            interval_cycles=monitor_interval,
            apply=True,
            signature_capacity=sig.num_entries,
        )
    run_mix(
        machine,
        tasks,
        monitor=monitor,
        signature_config=sig,
        scheduler_config=_phase1_scheduler_default(machine),
        min_wall_cycles=phase1_min_wall,
    )
    chosen = monitor.majority_mapping()
    if chosen is None or gate_tripped:
        # Degraded (or gate-rejected) mixes fall back to the safe
        # round-robin default — never a signature-derived schedule.
        chosen = default_mapping_for(tasks, machine.num_cores)
    times = run_all_mappings(
        machine, tasks, seed=seed, max_mappings=max_mappings
    )
    if chosen.canonical() not in times:
        # Lopsided phase-1 decisions fall outside the balanced reference
        # set; measure them explicitly (mirrors two_phase).
        result = run_mix(machine, tasks, mapping=chosen)
        times[chosen.canonical()] = {
            t.name: result.user_time(t.name) for t in tasks
        }
    chosen_times = times[chosen.canonical()]
    index_of = {task.tid: i for i, task in enumerate(tasks)}
    victims = set(VICTIM_NAMES)
    worst_slowdown = 1.0
    victim_worst_slowdown = 1.0
    improvements = []
    for task in tasks:
        best = min(t[task.name] for t in times.values())
        worst = max(t[task.name] for t in times.values())
        chosen_t = chosen_times[task.name]
        if best > 0:
            worst_slowdown = max(worst_slowdown, chosen_t / best)
            if task.name in victims:
                victim_worst_slowdown = max(
                    victim_worst_slowdown, chosen_t / best
                )
        if worst > 0:
            improvements.append((worst - chosen_t) / worst)
    suspects = sum(
        1
        for event in monitor.degradations
        if event["action"] == "proceed-suspect-signature"
    )
    return MixScore(
        adversary=kind,
        policy=policy_name,
        hardened=hardened,
        worst_slowdown=worst_slowdown,
        victim_worst_slowdown=victim_worst_slowdown,
        avg_improvement=(
            sum(improvements) / len(improvements) if improvements else 0.0
        ),
        degraded_invocations=len(monitor.degradations) - suspects,
        suspect_invocations=suspects,
        gate_tripped=gate_tripped,
        chosen_groups=tuple(
            tuple(index_of[t] for t in sorted(g))
            for g in chosen.canonical().groups
        ),
    )


@dataclass
class AdversaryReport:
    """All scores of one suite run, with the hardening deltas derived."""

    machine: str
    seed: int
    scores: List[MixScore] = field(default_factory=list)

    def add(self, score: MixScore) -> None:
        """Record one mix score."""
        self.scores.append(score)

    def _select(self, adversary: str, hardened: bool) -> List[MixScore]:
        return [
            s
            for s in self.scores
            if s.adversary == adversary and s.hardened == hardened
        ]

    def victim_worst_slowdown(self, adversary: str, hardened: bool) -> float:
        """Worst benign-victim slowdown across policies for one class."""
        selected = self._select(adversary, hardened)
        if not selected:
            raise ConfigurationError(
                f"no scores recorded for {adversary!r} hardened={hardened}"
            )
        return max(s.victim_worst_slowdown for s in selected)

    def delta(self, adversary: str) -> float:
        """Unhardened minus hardened victim slowdown (positive = win)."""
        return self.victim_worst_slowdown(
            adversary, False
        ) - self.victim_worst_slowdown(adversary, True)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form for ``BENCH_adversary_suite.json``."""
        adversaries = sorted({s.adversary for s in self.scores})
        return {
            "machine": self.machine,
            "seed": self.seed,
            "scores": [s.to_dict() for s in self.scores],
            "deltas": {
                adv: {
                    "unhardened_victim_worst_slowdown": (
                        self.victim_worst_slowdown(adv, False)
                    ),
                    "hardened_victim_worst_slowdown": (
                        self.victim_worst_slowdown(adv, True)
                    ),
                    "delta": self.delta(adv),
                }
                for adv in adversaries
                if self._select(adv, False) and self._select(adv, True)
            },
        }


def run_adversary_suite(
    machine: MachineConfig,
    policies: Sequence[Tuple[str, Callable[[], Any]]],
    *,
    kinds: Sequence[str] = ADVERSARY_KINDS,
    instructions: int = 150_000,
    seed: int = 0,
    signature_overrides: Optional[dict] = None,
    monitor_interval: float = 4_000_000.0,
    phase1_min_wall: float = 40_000_000.0,
) -> AdversaryReport:
    """Score every (adversary class, policy) cell, hardened and not.

    *policies* is a sequence of ``(name, factory)`` pairs; a fresh
    policy instance is built per cell so decision history never leaks
    between cells.
    """
    report = AdversaryReport(machine=machine.name, seed=seed)
    for kind in kinds:
        for name, factory in policies:
            for hardened in (False, True):
                report.add(
                    score_adversary_mix(
                        machine,
                        kind,
                        factory(),
                        name,
                        hardened=hardened,
                        instructions=instructions,
                        seed=seed,
                        monitor_interval=monitor_interval,
                        phase1_min_wall=phase1_min_wall,
                        signature_overrides=signature_overrides,
                    )
                )
    return report
