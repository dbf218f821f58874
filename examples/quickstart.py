#!/usr/bin/env python
"""Quickstart: Bloom-filter cache signatures in five minutes.

Builds the paper's core pipeline by hand, at a small scale:

1. a shared L2 cache with the split-CBF signature unit attached,
2. two synthetic workloads driving it from different cores,
3. the per-quantum signature sample (RBV / occupancy / symbiosis),
4. one allocation decision from the weighted interference-graph policy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cache import SetAssociativeCache, tiny_cache
from repro.core import SignatureConfig, SignatureUnit
from repro.perf import build_tasks, core2duo, run_mix
from repro.alloc import UserLevelMonitor, WeightedInterferenceGraphPolicy
from repro.perf.runner import default_signature_config
from repro.sched.os_model import SchedulerConfig


def manual_signature_demo() -> None:
    """Drive the signature hardware directly (no simulator)."""
    print("=" * 64)
    print("1. The signature hardware, by hand")
    print("=" * 64)
    cache = SetAssociativeCache(tiny_cache(sets=64, ways=4), num_cores=2)
    sig = SignatureUnit(SignatureConfig(num_cores=2, num_sets=64, ways=4))

    rng = np.random.default_rng(0)
    # Core 0 runs a small-footprint task; core 1 a larger streaming one
    # (kept below cache capacity so both footprints stay resident).
    small = rng.integers(0, 32, 2000)
    stream = np.arange(180) + 10_000

    for blocks, core in [(small, 0), (stream, 1)]:
        result = cache.access_batch(core, blocks)
        sig.record_events(
            core,
            result.fills,
            result.fill_slots,
            result.evictions,
            result.evict_slots,
        )

    for core in (0, 1):
        sample = sig.on_context_switch(core)
        print(
            f"core {core}: occupancy weight = {sample.occupancy:4d}   "
            f"symbiosis with cores = {sample.symbiosis}"
        )
    print("-> the streaming task's footprint dwarfs the small task's;")
    print("   symbiosis quantifies how much their footprints collide.\n")


def scheduling_demo() -> None:
    """Run the full phase-1 pipeline on the paper's Core 2 Duo model."""
    print("=" * 64)
    print("2. Phase-1 signature gathering + allocation decision")
    print("=" * 64)
    machine = core2duo()
    # A classic incompatible mix: two cache-hungry tasks, two light ones.
    tasks = build_tasks(
        ["mcf", "povray", "libquantum", "gobmk"], instructions=1_500_000
    )
    monitor = UserLevelMonitor(
        WeightedInterferenceGraphPolicy(), interval_cycles=8_000_000.0
    )
    result = run_mix(
        machine,
        tasks,
        monitor=monitor,
        signature_config=default_signature_config(machine),
        scheduler_config=SchedulerConfig(
            num_cores=2, timeslice_cycles=8_000_000.0, context_smoothing=0.6
        ),
        min_wall_cycles=80_000_000.0,
    )
    names = {t.tid: t.name for t in tasks}

    def fmt(mapping):
        return " | ".join(
            "{" + ",".join(names[i] for i in sorted(g)) + "}"
            for g in mapping.groups
        )

    print(f"allocator invocations: {len(result.decisions)}")
    if result.majority_mapping:
        print(f"majority decision:     {fmt(result.majority_mapping)}")
        print("-> the policy herds the two heavy cache users onto one core,")
        print("   so they timeshare instead of thrashing each other.")
    for task in result.tasks:
        print(
            f"  {task.name:11s} completions={task.completions:2d} "
            f"user time={machine.seconds(task.user_cycles)*1e3:7.2f} ms-equivalent"
        )


if __name__ == "__main__":
    manual_signature_demo()
    scheduling_demo()
