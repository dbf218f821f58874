"""repro — reproduction of "Symbiotic Scheduling for Shared Caches in
Multi-Core Systems Using Memory Footprint Signature" (ICPP 2011).

The package is organised by subsystem:

* :mod:`repro.core` — Bloom-filter signature hardware (the contribution)
* :mod:`repro.cache` — shared-cache multi-core substrate
* :mod:`repro.workloads` — synthetic SPEC/PARSEC-like trace generators
* :mod:`repro.sched` — OS scheduling model
* :mod:`repro.virt` — Xen-like hypervisor layer
* :mod:`repro.alloc` — the three symbiotic allocation algorithms
* :mod:`repro.perf` — closed-loop timing simulation and experiments
* :mod:`repro.jobs` — parallel experiment orchestration with a
  content-addressed result cache
* :mod:`repro.analysis` — result handling and figure builders

The most common entry points are re-exported here; see README.md for a
quickstart and DESIGN.md for the full system inventory.
"""

from repro.alloc import (
    InterferenceGraphPolicy,
    TwoPhasePolicy,
    UserLevelMonitor,
    WeightedInterferenceGraphPolicy,
    WeightSortPolicy,
)
from repro.core import SignatureConfig, SignatureUnit
from repro.perf import (
    MulticoreSimulator,
    TimingModel,
    build_tasks,
    core2duo,
    p4xeon,
    quadcore_shared,
    run_mix,
    run_solo,
    two_phase,
)

# Imported after repro.perf: the experiment drivers and the job specs
# reference each other, and the cycle only resolves perf-first.
from repro.jobs import Orchestrator, RunSpec
from repro.virt import Hypervisor, VirtualMachine, vm_two_phase
from repro.workloads import (
    parsec_pool,
    parsec_profile,
    spec_pool,
    spec_profile,
)

__version__ = "1.0.0"

__all__ = [
    "InterferenceGraphPolicy",
    "TwoPhasePolicy",
    "UserLevelMonitor",
    "WeightedInterferenceGraphPolicy",
    "WeightSortPolicy",
    "SignatureConfig",
    "SignatureUnit",
    "Orchestrator",
    "RunSpec",
    "MulticoreSimulator",
    "TimingModel",
    "build_tasks",
    "core2duo",
    "p4xeon",
    "quadcore_shared",
    "run_mix",
    "run_solo",
    "two_phase",
    "Hypervisor",
    "VirtualMachine",
    "vm_two_phase",
    "parsec_pool",
    "parsec_profile",
    "spec_pool",
    "spec_profile",
    "__version__",
]
