"""``python -m repro`` — package summary and a 10-second self-check.

Prints the subsystem inventory, then runs a miniature end-to-end pipeline
(signature gathering -> allocation decision -> measured improvement) to
confirm the installation works, and which exact-engine path ran: the
compiled kernel and its file, or numpy and the reason.
"""

from __future__ import annotations

import sys

import repro
from repro import native
from repro.alloc import UserLevelMonitor, WeightedInterferenceGraphPolicy
from repro.cache.config import CacheConfig, CacheGeometry
from repro.core.signature import SignatureConfig
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.workloads.patterns import HotColdGenerator, StreamGenerator

BANNER = f"""repro {repro.__version__} — reproduction of
"Symbiotic Scheduling for Shared Caches in Multi-Core Systems Using
 Memory Footprint Signature" (ICPP 2011)

subsystems: core (CBF signatures), cache, workloads, sched, alloc,
            virt, perf, analysis
entry points: examples/quickstart.py, pytest benchmarks/ --benchmark-only
docs: README.md, DESIGN.md, EXPERIMENTS.md
"""


def self_check() -> int:
    """Miniature end-to-end run; returns 0 on success."""
    machine = MachineConfig(
        name="selfcheck",
        num_cores=2,
        l2=CacheConfig(
            name="l2",
            geometry=CacheGeometry(size_bytes=64 * 1024, line_bytes=64, ways=8),
        ),
        shared_l2=True,
        timing=TimingModel(),
    )
    tasks = [
        SimTask(
            name="victim",
            generator=HotColdGenerator(2048, 512, hot_fraction=0.9, seed=1),
            total_accesses=40_000,
            accesses_per_kinstr=40.0,
        ),
        SimTask(
            name="light",
            generator=HotColdGenerator(64, 32, base_block=1 << 26, seed=3),
            total_accesses=3_000,
            accesses_per_kinstr=1.0,
        ),
        SimTask(
            name="polluter",
            generator=StreamGenerator(1 << 22, base_block=1 << 24, seed=2),
            total_accesses=40_000,
            accesses_per_kinstr=25.0,
            mlp=6.0,
        ),
        SimTask(
            name="light2",
            generator=HotColdGenerator(64, 32, base_block=1 << 27, seed=4),
            total_accesses=3_000,
            accesses_per_kinstr=1.0,
        ),
    ]
    monitor = UserLevelMonitor(
        WeightedInterferenceGraphPolicy(seed=1), interval_cycles=400_000.0
    )
    sim = MulticoreSimulator(
        machine,
        tasks,
        signature_config=SignatureConfig(num_cores=2, num_sets=128, ways=8),
        monitor=monitor,
        scheduler_config=SchedulerConfig(
            num_cores=2, timeslice_cycles=300_000.0, context_smoothing=0.6
        ),
    )
    result = sim.run(min_wall_cycles=6_000_000.0)
    names = {t.tid: t.name for t in tasks}
    if result.majority_mapping is None:
        print("self-check FAILED: no allocation decisions reached")
        return 1
    groups = " | ".join(
        "{" + ",".join(names[i] for i in sorted(g)) + "}"
        for g in result.majority_mapping.groups
    )
    print(f"self-check: {len(result.decisions)} decisions, majority: {groups}")
    print(f"engine: {native.describe()}")
    print("self-check PASSED")
    return 0


if __name__ == "__main__":
    print(BANNER)
    sys.exit(self_check())
