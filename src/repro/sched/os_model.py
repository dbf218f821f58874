"""The OS scheduling model: per-core run queues with round-robin quanta.

This mirrors the paper's software architecture (Section 3.2):

* the **kernel** keeps per-core run queues, performs round-robin context
  switches within a core, and — on every switch — reads the signature
  hardware (the Simics "magic instruction" in the paper's phase 1) to
  refresh the outgoing task's :class:`~repro.core.context.SignatureContext`;
* the **user-level monitor** (in :mod:`repro.alloc.monitor`) only sets
  affinity bits; migrations take effect at the next context switch so the
  running task is never yanked mid-quantum.

Timeslice and switch costs are in cycles. The default quantum is large
relative to this reproduction's compressed run lengths, mirroring the real
ratio on the paper's machines (a 100 ms Linux quantum is tiny next to a
100 s SPEC run, so per-quantum cache refill amortises to almost nothing;
with our scaled-down budgets the equivalent regime is run-granular
alternation). Phase-1 signature gathering overrides this with a small
quantum to sample RBVs densely (see repro.perf.experiment).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.context import SignatureContext, SignatureSample
from repro.core.signature import SignatureUnit
from repro.errors import SchedulingError
from repro.sched.affinity import Mapping
from repro.sched.process import SimTask
from repro.utils.validation import require_positive

__all__ = ["SchedulerConfig", "OSScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling parameters.

    Parameters
    ----------
    num_cores:
        Physical cores managed.
    timeslice_cycles:
        Round-robin quantum.
    context_switch_cycles:
        Direct cost charged to the core at each switch (register/kernel
        overhead; cache warm-up emerges from the cache model itself).
    context_smoothing:
        EMA factor for the per-task signature contexts (1.0 = keep only
        the latest sample, the paper's behaviour; phase-1 gathering uses
        a lower value to stabilise allocator decisions).
    """

    num_cores: int
    timeslice_cycles: float = 50_000_000.0
    context_switch_cycles: float = 5_000.0
    context_smoothing: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.num_cores, "num_cores")
        if self.timeslice_cycles <= 0:
            raise SchedulingError("timeslice_cycles must be positive")
        if self.context_switch_cycles < 0:
            raise SchedulingError("context_switch_cycles must be >= 0")
        if not 0.0 < self.context_smoothing <= 1.0:
            raise SchedulingError("context_smoothing must be in (0, 1]")


class OSScheduler:
    """Per-core run queues, affinity handling and signature bookkeeping."""

    def __init__(
        self,
        config: SchedulerConfig,
        signature_unit: Optional[SignatureUnit] = None,
    ):
        self.config = config
        self.num_cores = config.num_cores
        self.signature_unit = signature_unit
        if signature_unit is not None and signature_unit.num_cores != self.num_cores:
            raise SchedulingError(
                f"signature unit covers {signature_unit.num_cores} cores, "
                f"scheduler has {self.num_cores}"
            )
        self.queues: List[Deque[SimTask]] = [deque() for _ in range(self.num_cores)]
        self.quantum_used: List[float] = [0.0] * self.num_cores
        self.tasks: Dict[int, SimTask] = {}
        self.contexts: Dict[int, SignatureContext] = {}
        self._pending_affinity: Dict[int, int] = {}
        self.total_context_switches = 0
        self.total_migrations = 0

    # ------------------------------------------------------------------
    # task placement
    # ------------------------------------------------------------------
    def add_task(self, task: SimTask, core: Optional[int] = None) -> None:
        """Enqueue a new task, on *core* or on the least-loaded core."""
        if task.tid in self.tasks:
            raise SchedulingError(f"task {task.tid} added twice")
        if core is None:
            core = min(range(self.num_cores), key=lambda c: len(self.queues[c]))
        self._check_core(core)
        self.queues[core].append(task)
        self.tasks[task.tid] = task
        self.contexts[task.tid] = SignatureContext(
            self.num_cores, smoothing=self.config.context_smoothing
        )

    def core_of(self, tid: int) -> int:
        """Core whose queue currently holds the task."""
        for core, queue in enumerate(self.queues):
            for task in queue:
                if task.tid == tid:
                    return core
        raise SchedulingError(f"task {tid} not queued")

    def set_affinity(self, tid: int, core: int) -> None:
        """Pin a task to *core* (the monitor's only lever, Section 3.2).

        A queued (not running) task migrates immediately; the running task
        of a core migrates at that core's next context switch.
        """
        self._check_core(core)
        if tid not in self.tasks:
            raise SchedulingError(f"unknown task {tid}")
        current = self.core_of(tid)
        if current == core:
            self._pending_affinity.pop(tid, None)
            return
        task = self.tasks[tid]
        if self.queues[current][0] is task:
            self._pending_affinity[tid] = core  # defer: currently running
            return
        self.queues[current].remove(task)
        self.queues[core].append(task)
        self.total_migrations += 1

    def apply_mapping(self, mapping: Mapping) -> None:
        """Set affinity of every task named in *mapping*."""
        if mapping.num_cores > self.num_cores:
            raise SchedulingError(
                f"mapping uses {mapping.num_cores} cores, have {self.num_cores}"
            )
        # Sorted, like the simulator's initial placement, so migrations
        # happen in tid order whatever the absolute tid values.
        for core, group in enumerate(mapping.groups):
            for tid in sorted(group):
                self.set_affinity(tid, core)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def current_task(self, core: int) -> Optional[SimTask]:
        """The task occupying *core* (queue head)."""
        self._check_core(core)
        queue = self.queues[core]
        return queue[0] if queue else None

    def runnable_cores(self) -> List[int]:
        """Cores with at least one queued task."""
        return [c for c in range(self.num_cores) if self.queues[c]]

    def charge(self, core: int, cycles: float) -> bool:
        """Charge quantum usage; True when the timeslice expired."""
        self._check_core(core)
        self.quantum_used[core] += cycles
        return self.quantum_used[core] >= self.config.timeslice_cycles

    def context_switch(self, core: int) -> Optional[SignatureSample]:
        """End the current quantum on *core*.

        Snapshots the signature hardware (refreshing the outgoing task's
        context), applies any deferred affinity migration, rotates the run
        queue, and resets the quantum. Returns the signature sample, or
        ``None`` when no signature unit is attached or the core is idle.

        The direct switch cost is *not* charged here — the simulator adds
        ``config.context_switch_cycles`` to the core clock so the timing
        stays in one place.
        """
        self._check_core(core)
        queue = self.queues[core]
        self.quantum_used[core] = 0.0
        if not queue:
            return None
        outgoing = queue[0]
        sample: Optional[SignatureSample] = None
        if self.signature_unit is not None:
            sample = self.signature_unit.on_context_switch(core)
            # A fault-injected unit may drop the sample (lost sampling
            # window); the context then simply keeps its last reading.
            if sample is not None:
                self.contexts[outgoing.tid].update(sample)
        outgoing.context_switches += 1
        self.total_context_switches += 1
        # Deferred migration of the task that just stopped running.
        target = self._pending_affinity.pop(outgoing.tid, None)
        if target is not None and target != core:
            queue.popleft()
            self.queues[target].append(outgoing)
            self.total_migrations += 1
        else:
            queue.rotate(-1)
        return sample

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise SchedulingError(
                f"core {core} out of range for {self.num_cores}-core scheduler"
            )

    def __repr__(self) -> str:
        loads = [len(q) for q in self.queues]
        return f"OSScheduler(cores={self.num_cores}, queue_loads={loads})"
