"""Dom0: the control domain running the allocation policy.

In the paper's architecture (Section 3.2) "the actual resource allocation
decisions are made in Dom0. An allocation policy running in this domain
utilizes a hyper-call interface to periodically query the hypervisor for
updated information regarding executing VMs". The hypercall interface has
the same shape as the native syscall interface, so
:class:`Dom0AllocationAgent` is the user-level monitor specialised to the
virtualized setting: it never reschedules Dom0's own vcpu, and it allocates
at VM granularity.

This module also carries the Figure 11 experiment drivers — the two-phase
methodology with VM encapsulation.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional, Sequence

from repro.alloc.monitor import UserLevelMonitor
from repro.perf.experiment import (
    MixResult,
    SweepResult,
    _run_plans,
    _TwoPhasePlan,
)
from repro.perf.machine import MachineConfig
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.syscall import SyscallInterface
from repro.telemetry.context import current as telemetry_current
from repro.utils.rng import stable_seed
from repro.virt.hypervisor import DOM0_NAME
from repro.virt.overhead import VirtualizationOverhead
from repro.virt.vm import VirtualMachine
from repro.workloads.spec import spec_profile

__all__ = ["Dom0AllocationAgent", "vm_two_phase", "vm_mix_sweep"]

#: Block-address spacing between guest VMs (matches the native runner).
_ADDRESS_STRIDE_BLOCKS = 1 << 23


class Dom0AllocationAgent(UserLevelMonitor):
    """The control-domain allocator: a monitor that ignores Dom0 itself."""

    def invoke(self, syscall: SyscallInterface) -> Optional[Mapping]:
        tel = telemetry_current()
        span = (
            tel.tracer.begin("hypervisor.remap")
            if tel is not None and tel.tracer is not None
            else None
        )
        try:
            tasks = [t for t in syscall.query_tasks() if t.name != DOM0_NAME]
            if not tasks or any(not t.valid for t in tasks):
                self.skipped_invocations += 1
                self._count(tel, "virt_remaps_skipped_total")
                return None
            mapping = self.policy.allocate(tasks, syscall.num_cores).canonical()
            self.decisions.append(mapping)
            if self.apply:
                syscall.apply_mapping(mapping)
                self._count(tel, "virt_remaps_applied_total")
            return mapping
        finally:
            if span is not None:
                tel.tracer.end(span)


def _build_vms(
    names: Sequence[str], instructions: int, seed: int
) -> List[VirtualMachine]:
    vms = []
    for i, name in enumerate(names):
        vms.append(
            VirtualMachine.from_profile(
                spec_profile(name),
                instructions=instructions,
                base_block=(i + 1) * _ADDRESS_STRIDE_BLOCKS,
                seed=stable_seed(seed, "vm", name, i),
            )
        )
    return vms


def _vm_plan(
    machine: MachineConfig,
    names: Sequence[str],
    policy,
    *,
    instructions: int = 6_000_000,
    overhead: Optional[VirtualizationOverhead] = None,
    seed: int = 0,
    batch_accesses: int = 256,
    monitor_interval: float = 8_000_000.0,
    phase1_min_wall: float = 160_000_000.0,
    scheduler_config: Optional[SchedulerConfig] = None,
) -> _TwoPhasePlan:
    """One VM mix's two-phase plan, in vcpu-index space.

    Vcpu ``i`` belongs to the ``i``-th named VM; the overhead model is
    active in both phases.
    """
    return _TwoPhasePlan(
        machine,
        names,
        policy,
        kind="vm",
        instructions=instructions,
        overhead=asdict(overhead or VirtualizationOverhead()),
        seed=seed,
        batch_accesses=batch_accesses,
        monitor_interval=monitor_interval,
        phase1_min_wall=phase1_min_wall,
        scheduler_config=scheduler_config,
    )


def vm_two_phase(
    machine: MachineConfig,
    names: Sequence[str],
    policy,
    instructions: int = 6_000_000,
    overhead: Optional[VirtualizationOverhead] = None,
    seed: int = 0,
    batch_accesses: int = 256,
    monitor_interval: float = 8_000_000.0,
    phase1_min_wall: float = 160_000_000.0,
    scheduler_config: Optional[SchedulerConfig] = None,
    orchestrator=None,
) -> MixResult:
    """The Section 4 methodology with VM encapsulation (Figure 11).

    Identical structure to :func:`repro.perf.experiment.two_phase`, with
    the benchmark processes wrapped in single-vcpu VMs on a hypervisor, the
    Dom0 agent making decisions over hypercalls, and the virtualization
    overhead model active in both phases.

    Both phases run as one batch through *orchestrator* (default:
    in-process); mappings are in vcpu-index space.
    """
    plan = _vm_plan(
        machine,
        names,
        policy,
        instructions=instructions,
        overhead=overhead,
        seed=seed,
        batch_accesses=batch_accesses,
        monitor_interval=monitor_interval,
        phase1_min_wall=phase1_min_wall,
        scheduler_config=scheduler_config,
    )
    return _run_plans([plan], orchestrator).mix_results[0]


def vm_mix_sweep(
    machine: MachineConfig,
    mixes: Sequence[Sequence[str]],
    policy,
    instructions: int = 6_000_000,
    overhead: Optional[VirtualizationOverhead] = None,
    seed: int = 0,
    batch_accesses: int = 256,
    orchestrator=None,
    **two_phase_kwargs,
) -> SweepResult:
    """Figure 11's sweep: per-benchmark max/avg improvement inside VMs.

    Mix ``i`` is :func:`vm_two_phase` at seed ``seed + i``; every mix's
    specs go out as one batch (plus at most one follow-up batch), exactly
    like the native :func:`~repro.perf.experiment.mix_sweep`.
    """
    plans = [
        _vm_plan(
            machine,
            mix,
            policy,
            instructions=instructions,
            overhead=overhead,
            seed=seed + i,
            batch_accesses=batch_accesses,
            **two_phase_kwargs,
        )
        for i, mix in enumerate(mixes)
    ]
    return _run_plans(plans, orchestrator)
