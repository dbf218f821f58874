"""Every experiment driver runs one way: run specs through an orchestrator.

A driver's result depends only on its arguments: mix ``k`` of a sweep
equals the standalone two-phase run of that mix at seed ``s + k``, and
every driver returns the same result in process (its default) and over
two worker processes.
"""

import pytest

from repro.alloc import WeightedInterferenceGraphPolicy, WeightSortPolicy
from repro.alloc.monitor import fallback_mapping
from repro.errors import ConfigurationError, WorkloadError
from repro.jobs import Orchestrator
from repro.perf.experiment import (
    mix_sweep,
    pairwise_private_timeshare,
    pairwise_shared,
    parsec_two_phase,
    two_phase,
)
from repro.perf.machine import core2duo, p4xeon
from repro.virt.dom0 import vm_mix_sweep, vm_two_phase

MIXES = [
    ("mcf", "libquantum", "povray", "gobmk"),
    ("milc", "libquantum", "povray", "gobmk"),
]
NATIVE = dict(instructions=150_000, phase1_min_wall=10_000_000.0)
VM = dict(instructions=150_000, phase1_min_wall=20_000_000.0,
          monitor_interval=2_000_000.0)

DRIVERS = {
    "pairwise_shared": lambda orch: pairwise_shared(
        core2duo(), ["povray", "sjeng", "mcf"], instructions=150_000,
        orchestrator=orch,
    ),
    "pairwise_private_timeshare": lambda orch: pairwise_private_timeshare(
        p4xeon(), ["povray", "mcf"], instructions=150_000, orchestrator=orch,
    ),
    "two_phase": lambda orch: two_phase(
        core2duo(), MIXES[0], WeightedInterferenceGraphPolicy(seed=3),
        seed=3, orchestrator=orch, **NATIVE,
    ),
    "mix_sweep": lambda orch: mix_sweep(
        core2duo(), MIXES, WeightedInterferenceGraphPolicy(seed=3), seed=3,
        orchestrator=orch, **NATIVE,
    ),
    "parsec_two_phase": lambda orch: parsec_two_phase(
        core2duo(), ["blackscholes", "swaptions"],
        instructions_per_thread=100_000, phase1_min_wall=20_000_000.0,
        monitor_interval=2_000_000.0, orchestrator=orch,
    ),
    "vm_two_phase": lambda orch: vm_two_phase(
        core2duo(), MIXES[1], WeightSortPolicy(), seed=3,
        orchestrator=orch, **VM,
    ),
    "vm_mix_sweep": lambda orch: vm_mix_sweep(
        core2duo(), MIXES, WeightedInterferenceGraphPolicy(seed=3), seed=3,
        orchestrator=orch, **VM,
    ),
}


@pytest.fixture(scope="module")
def in_process():
    return {name: driver(None) for name, driver in DRIVERS.items()}


def test_native_sweep_mix_equals_its_standalone_run(in_process):
    sweep = in_process["mix_sweep"]
    assert not sweep.failures.failures
    for k, mix in enumerate(MIXES):
        alone = two_phase(
            core2duo(), mix, WeightedInterferenceGraphPolicy(seed=3),
            seed=3 + k, **NATIVE,
        )
        assert sweep.mix_results[k] == alone


def test_vm_sweep_mix_equals_its_standalone_run(in_process):
    sweep = in_process["vm_mix_sweep"]
    for k, mix in enumerate(MIXES):
        alone = vm_two_phase(
            core2duo(), mix, WeightedInterferenceGraphPolicy(seed=3),
            seed=3 + k, **VM,
        )
        assert sweep.mix_results[k] == alone


def test_every_driver_agrees_across_worker_counts(in_process):
    pooled = Orchestrator(jobs=2)
    for name, driver in DRIVERS.items():
        assert driver(pooled) == in_process[name], name


def test_policy_outside_the_registry_is_rejected():
    class RoundRobin:
        """A policy no run spec can describe."""

        def allocate(self, tasks, num_cores):
            return fallback_mapping(tasks, num_cores)

    with pytest.raises(ConfigurationError, match="POLICY_REGISTRY"):
        two_phase(core2duo(), MIXES[0], RoundRobin(), **NATIVE)


def test_a_job_error_keeps_its_type():
    with pytest.raises(WorkloadError):
        two_phase(core2duo(), ["mcf", "nosuch"], WeightSortPolicy(), **NATIVE)
