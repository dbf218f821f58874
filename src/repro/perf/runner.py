"""Run builders: benchmarks mixes, solo runs, signature defaults.

These helpers assemble tasks from profile names, give each task a disjoint
slice of the block-address space, and wrap the simulator for the common
run shapes (solo, mix-under-mapping, phase-1 with monitor).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.signature import SignatureConfig
from repro.errors import ConfigurationError
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator, SimulationResult
from repro.sched.affinity import Mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimProcess, SimTask, process_from_parsec, task_from_profile
from repro.utils.rng import stable_seed
from repro.utils.validation import require_positive
from repro.workloads.parsec import parsec_profile
from repro.workloads.spec import spec_profile

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "build_tasks",
    "build_parsec_processes",
    "default_signature_config",
    "run_mix",
    "run_solo",
]

#: Per-run instruction budget (scaled-down stand-in for a full SPEC run).
DEFAULT_INSTRUCTIONS = 6_000_000

#: Block-address spacing between tasks (512 MB — beyond any working set).
_ADDRESS_STRIDE_BLOCKS = 1 << 23


def build_tasks(
    names: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
) -> List[SimTask]:
    """Build one task per profile name, with disjoint address slices."""
    require_positive(instructions, "instructions")
    tasks = []
    for i, name in enumerate(names):
        profile = spec_profile(name)
        tasks.append(
            task_from_profile(
                profile,
                instructions=instructions,
                base_block=(i + 1) * _ADDRESS_STRIDE_BLOCKS,
                seed=stable_seed(seed, name, i),
            )
        )
    return tasks


def build_parsec_processes(
    names: Sequence[str],
    instructions_per_thread: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
) -> List[SimProcess]:
    """Build one multithreaded process per PARSEC-like profile name."""
    require_positive(instructions_per_thread, "instructions_per_thread")
    processes = []
    for i, name in enumerate(names):
        profile = parsec_profile(name)
        processes.append(
            process_from_parsec(
                profile,
                instructions_per_thread=instructions_per_thread,
                base_block=(i + 1) * _ADDRESS_STRIDE_BLOCKS,
                seed=stable_seed(seed, name, i),
            )
        )
    return processes


def default_signature_config(machine: MachineConfig, **overrides) -> SignatureConfig:
    """Signature hardware sized to the machine's shared L2 (paper default).

    Entries = number of cache lines; one XOR hash; 3-bit counters.
    Keyword overrides pass through (e.g. ``sampling_denominator=4``).
    """
    if not machine.shared_l2:
        raise ConfigurationError("signature hardware requires a shared L2")
    geometry = machine.l2.geometry
    params = dict(
        num_cores=machine.num_cores,
        num_sets=geometry.num_sets,
        ways=geometry.ways,
        counter_bits=3,
        num_hashes=1,
        hash_kind="xor",
    )
    params.update(overrides)
    return SignatureConfig(**params)


def run_mix(
    machine: MachineConfig,
    tasks: Sequence[SimTask],
    *,
    mapping: Optional[Mapping] = None,
    monitor=None,
    signature_config: Optional[SignatureConfig] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    batch_accesses: int = 256,
    max_wall_cycles: Optional[float] = None,
    min_wall_cycles: Optional[float] = None,
    signature_injector=None,
) -> SimulationResult:
    """Execute a task mix to completion under the given constraints."""
    sim = MulticoreSimulator(
        machine,
        tasks,
        mapping=mapping,
        signature_config=signature_config,
        monitor=monitor,
        scheduler_config=scheduler_config,
        batch_accesses=batch_accesses,
        signature_injector=signature_injector,
    )
    return sim.run(
        max_wall_cycles=max_wall_cycles, min_wall_cycles=min_wall_cycles
    )


def run_solo(
    machine: MachineConfig,
    name: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    batch_accesses: int = 256,
) -> SimulationResult:
    """Run one benchmark alone on the machine (baseline for degradations)."""
    tasks = build_tasks([name], instructions=instructions, seed=seed)
    return run_mix(machine, tasks, batch_accesses=batch_accesses)
