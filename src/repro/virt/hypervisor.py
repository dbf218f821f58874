"""The hypervisor layer: builds virtualized simulations from VMs.

The hardware infrastructure is identical to the native case (paper Section
3.1: "The infrastructure needed to support VMs is exactly the same") — the
differences are (a) signatures are tracked per VM rather than per process,
(b) the timing carries the virtualization tax, and (c) Dom0's background
activity shares the machine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.signature import SignatureConfig
from repro.errors import ConfigurationError
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator, SimulationResult
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.telemetry.context import current as telemetry_current
from repro.virt.overhead import VirtualizationOverhead
from repro.virt.vm import VirtualMachine
from repro.workloads.patterns import HotColdGenerator

__all__ = ["Hypervisor", "DOM0_NAME"]

DOM0_NAME = "dom0"

#: Block-address slice reserved for the Dom0 task, far above guest slices.
_DOM0_BASE_BLOCK = 1 << 30


class Hypervisor:
    """Owns the virtualized machine model and the guest VMs.

    Parameters
    ----------
    machine:
        The bare-metal platform the hypervisor runs on.
    vms:
        Guest VMs to schedule.
    overhead:
        The Xen-like overhead model.
    seed:
        Seed for the Dom0 background workload.
    """

    def __init__(
        self,
        machine: MachineConfig,
        vms: Sequence[VirtualMachine],
        overhead: Optional[VirtualizationOverhead] = None,
        seed: int = 0,
    ):
        if not vms:
            raise ConfigurationError("hypervisor needs at least one VM")
        names = [vm.name for vm in vms]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate VM names: {names}")
        self.vms = list(vms)
        self.overhead = overhead or VirtualizationOverhead()
        self.machine = replace(
            machine,
            name=f"{machine.name}+xen",
            timing=self.overhead.virtualize_timing(machine.timing),
        )
        self.dom0_task: Optional[SimTask] = None
        if self.overhead.includes_dom0:
            footprint_blocks = max(1, self.overhead.dom0_footprint_kb * 1024 // 64)
            self.dom0_task = SimTask(
                name=DOM0_NAME,
                generator=HotColdGenerator(
                    footprint_blocks,
                    max(1, footprint_blocks // 4),
                    hot_fraction=0.8,
                    base_block=_DOM0_BASE_BLOCK,
                    seed=seed,
                ),
                total_accesses=self.overhead.dom0_accesses,
                accesses_per_kinstr=2.0,
                mlp=1.5,
            )

    # ------------------------------------------------------------------
    @property
    def guest_tasks(self) -> List[SimTask]:
        """All guest vcpu tasks (excludes Dom0)."""
        return [v for vm in self.vms for v in vm.vcpus]

    @property
    def all_tasks(self) -> List[SimTask]:
        """Guest vcpus plus the Dom0 task (if modelled)."""
        tasks = self.guest_tasks
        if self.dom0_task is not None:
            tasks = tasks + [self.dom0_task]
        return tasks

    def scheduler_config(
        self, base: Optional[SchedulerConfig] = None
    ) -> SchedulerConfig:
        """The vcpu scheduler config with world-switch costs folded in."""
        base = base or SchedulerConfig(num_cores=self.machine.num_cores)
        return replace(
            base,
            num_cores=self.machine.num_cores,
            context_switch_cycles=base.context_switch_cycles
            + self.overhead.vm_switch_cycles,
        )

    def simulator(
        self,
        mapping: Optional[Mapping] = None,
        signature_config: Optional[SignatureConfig] = None,
        monitor=None,
        scheduler_config: Optional[SchedulerConfig] = None,
        batch_accesses: int = 256,
        signature_injector=None,
    ) -> MulticoreSimulator:
        """Build a virtualized simulation.

        *mapping* names guest vcpu tids only; the Dom0 task floats to the
        least-loaded core, as an unpinned domain would.
        """
        return MulticoreSimulator(
            self.machine,
            self.all_tasks,
            mapping=mapping,
            signature_config=signature_config,
            monitor=monitor,
            scheduler_config=self.scheduler_config(scheduler_config),
            batch_accesses=batch_accesses,
            signature_injector=signature_injector,
        )

    def run(
        self,
        mapping: Optional[Mapping] = None,
        signature_config: Optional[SignatureConfig] = None,
        monitor=None,
        scheduler_config: Optional[SchedulerConfig] = None,
        batch_accesses: int = 256,
        min_wall_cycles: Optional[float] = None,
        max_wall_cycles: Optional[float] = None,
        signature_injector=None,
    ) -> SimulationResult:
        """Run the VMs to completion (Dom0 restarts throughout)."""
        sim = self.simulator(
            mapping=mapping,
            signature_config=signature_config,
            monitor=monitor,
            scheduler_config=scheduler_config,
            batch_accesses=batch_accesses,
            signature_injector=signature_injector,
        )
        tel = telemetry_current()
        if tel is None or tel.tracer is None:
            return sim.run(
                max_wall_cycles=max_wall_cycles, min_wall_cycles=min_wall_cycles
            )
        with tel.tracer.span(
            "hypervisor.run",
            vms=len(self.vms),
            dom0=self.dom0_task is not None,
        ):
            return sim.run(
                max_wall_cycles=max_wall_cycles, min_wall_cycles=min_wall_cycles
            )

    def vm_user_time(self, result: SimulationResult, vm_name: str) -> float:
        """User time of a named VM (slowest vcpu's first completion)."""
        for vm in self.vms:
            if vm.name == vm_name:
                return vm.user_time(result)
        raise KeyError(f"no VM named {vm_name!r}")
