"""Representative-interval sampling backend.

The sampled backend keeps the exact simulator's mechanics — real
set-associative LRU state, real interleaving, real timing feedback — but
feeds it a *shortened* trace per task:

1. each task's reference stream is profiled into windowed presence
   signatures and split into phases (:mod:`repro.estimate.phases`);
2. per phase, the most representative ``windows // denominator``
   windows are kept and stitched back together in trace order;
3. the stitched mini-traces run through the exact
   :class:`~repro.perf.simulator.MulticoreSimulator` — obtained via the
   dispatch seam, never constructed here directly (lint rule RPR503) —
   under the requested mapping;
4. per-task user times are extrapolated by each task's kept-reference
   ratio, and the coverage plus a crude error bound are recorded in the
   returned :class:`SampleReport`.

The shortened traces preserve each task's *relative* memory intensity
(accesses per kilo-instruction are untouched), so cross-task rate ratios
— the quantity degradation depends on — are unbiased; only the absolute
run length shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.estimate.options import EstimatorOptions
from repro.estimate.phases import (
    coverage,
    detect_phases,
    representative_windows,
    window_signatures,
)
from repro.perf.machine import MachineConfig
from repro.perf.simulator import SimulationResult, TaskResult
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.workloads.base import TraceGenerator

__all__ = ["ReplayGenerator", "TaskSample", "SampleReport", "sampled_simulation"]


class ReplayGenerator(TraceGenerator):
    """Replays a fixed block-address array as a trace stream.

    Wraps around at the end (restart incarnations re-shift the base the
    same way the original generator's restarts do, because the stored
    addresses are *relative* to ``base_block``).
    """

    split_granule = 1

    def __init__(self, blocks: np.ndarray, base_block: int = 0, seed: int = 0):
        super().__init__(base_block=base_block, seed=seed)
        blocks = np.asarray(blocks, dtype=np.int64)
        if len(blocks) == 0:
            raise WorkloadError("replay trace must be non-empty")
        self._blocks = blocks
        self._pos = 0

    def _generate(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            take = min(n - filled, len(self._blocks) - self._pos)
            out[filled : filled + take] = self._blocks[
                self._pos : self._pos + take
            ]
            self._pos = (self._pos + take) % len(self._blocks)
            filled += take
        return out

    def _restart(self) -> None:
        self._pos = 0


@dataclass(frozen=True)
class TaskSample:
    """How one task's trace was shortened.

    ``scale`` is the extrapolation factor (original references per kept
    reference); ``error_bound`` is the indicative ``1/√k`` sampling
    bound over the kept windows (``None`` when nothing was dropped).
    """

    name: str
    total_refs: int
    kept_refs: int
    phases: int
    coverage: float
    error_bound: Optional[float]

    @property
    def scale(self) -> float:
        """Extrapolation factor applied to the sampled user time."""
        return self.total_refs / self.kept_refs


@dataclass(frozen=True)
class SampleReport:
    """Aggregate sampling metadata of one sampled run."""

    samples: Tuple[TaskSample, ...]

    @property
    def coverage(self) -> float:
        """Overall fraction of references actually simulated."""
        total = sum(s.total_refs for s in self.samples)
        kept = sum(s.kept_refs for s in self.samples)
        return kept / total if total else 0.0

    @property
    def error_bound(self) -> Optional[float]:
        """Worst per-task indicative error bound (``None`` if exact)."""
        bounds = [s.error_bound for s in self.samples if s.error_bound]
        return max(bounds) if bounds else None


def _sample_task(
    task: SimTask, options: EstimatorOptions
) -> Tuple[SimTask, TaskSample]:
    """Build the shortened replay twin of one task.

    The whole trace is drawn in one ``next_batch`` call, which matches the
    exact engine's per-batch stream only for a split-invariant generator
    (see :func:`repro.estimate.reuse.profile_task`).
    """
    generator = task.generator
    generator.reset()
    base = generator.base_block
    absolute = np.array(
        generator.next_batch(task.total_accesses), dtype=np.int64, copy=True
    )
    generator.reset()
    relative = absolute - base

    signatures = window_signatures(relative, options)
    phases = detect_phases(signatures, options)
    kept_windows = representative_windows(signatures, phases, options)
    frac, bound = coverage(kept_windows, len(signatures))

    window = options.window_refs
    pieces = [
        relative[w * window : (w + 1) * window] for w in kept_windows
    ]
    stitched = np.concatenate(pieces)
    sampled = SimTask(
        name=task.name,
        generator=ReplayGenerator(stitched, base_block=base, seed=task.generator.seed),
        total_accesses=len(stitched),
        accesses_per_kinstr=task.accesses_per_kinstr,
        mlp=task.mlp,
    )
    sampled.tid = task.tid
    sampled.process_id = task.process_id
    return sampled, TaskSample(
        name=task.name,
        total_refs=int(task.total_accesses),
        kept_refs=int(len(stitched)),
        phases=len(phases),
        coverage=frac,
        error_bound=bound,
    )


def sampled_simulation(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    *,
    mapping: Optional[Mapping] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    batch_accesses: int = 256,
    options: Optional[EstimatorOptions] = None,
) -> Tuple[SimulationResult, SampleReport]:
    """Simulate representative intervals exactly, extrapolate the rest.

    Returns the extrapolated :class:`SimulationResult` (user times and
    wall cycles scaled back to full-trace magnitudes; the miss rate is
    the sampled run's measured rate) plus the :class:`SampleReport`
    recording per-task coverage and error bounds.
    """
    from repro.estimate.dispatch import make_exact_simulator

    if not tasks:
        raise ConfigurationError("need at least one task")
    options = options or EstimatorOptions()
    shortened: List[SimTask] = []
    samples: List[TaskSample] = []
    for task in tasks:
        mini, sample = _sample_task(task, options)
        shortened.append(mini)
        samples.append(sample)
    report = SampleReport(samples=tuple(samples))

    simulator = make_exact_simulator(
        machine,
        shortened,
        mapping=mapping,
        scheduler_config=scheduler_config,
        batch_accesses=batch_accesses,
    )
    result = simulator.run()

    scale_by_name = {s.name: s.scale for s in samples}
    scaled_tasks = []
    for t in result.tasks:
        scale = scale_by_name[t.name]
        scaled_tasks.append(
            TaskResult(
                name=t.name,
                tid=t.tid,
                process_id=t.process_id,
                first_completion_cycles=(
                    None
                    if t.first_completion_cycles is None
                    else t.first_completion_cycles * scale
                ),
                user_cycles=t.user_cycles * scale,
                completions=t.completions,
                context_switches=t.context_switches,
            )
        )
    mean_scale = float(np.mean([s.scale for s in samples]))
    extrapolated = SimulationResult(
        machine=result.machine,
        wall_cycles=result.wall_cycles * mean_scale,
        tasks=scaled_tasks,
        l2_miss_rate=result.l2_miss_rate,
    )
    return extrapolated, report
