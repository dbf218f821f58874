"""Cross-subsystem integration tests at miniature scale.

These exercise the complete pipelines (cache -> signature -> scheduler ->
policy -> timing) on a shrunken machine so they stay fast while covering
the same code paths as the paper-scale benchmarks.
"""


from repro.alloc import (
    UserLevelMonitor,
    WeightedInterferenceGraphPolicy,
    WeightSortPolicy,
)
from repro.cache.config import CacheConfig, CacheGeometry
from repro.core.signature import SignatureConfig
from repro.perf.machine import MachineConfig
from repro.perf.simulator import MulticoreSimulator
from repro.perf.timing import TimingModel
from repro.sched.affinity import canonical_mapping
from repro.sched.os_model import SchedulerConfig
from repro.sched.process import SimTask
from repro.workloads.base import WorkloadProfile
from repro.workloads.patterns import HotColdGenerator, StreamGenerator


def mini_machine(cores=2):
    """A 64 KB shared L2 'Core 2 Duo' with the real timing model."""
    return MachineConfig(
        name="mini",
        num_cores=cores,
        l2=CacheConfig(
            name="mini-l2",
            geometry=CacheGeometry(size_bytes=64 * 1024, line_bytes=64, ways=8),
        ),
        shared_l2=True,
        timing=TimingModel(),
    )


def victim_task(name="victim", accesses=60_000, seed=1):
    """Cache-sensitive: reuses a hot set of half the mini cache."""
    return SimTask(
        name=name,
        generator=HotColdGenerator(2048, 512, hot_fraction=0.9, seed=seed),
        total_accesses=accesses,
        accesses_per_kinstr=40.0,
        mlp=1.0,
    )


def polluter_task(name="polluter", accesses=60_000, seed=2):
    """Streaming: floods the mini cache with fresh lines."""
    return SimTask(
        name=name,
        generator=StreamGenerator(1 << 22, base_block=1 << 24, seed=seed),
        total_accesses=accesses,
        accesses_per_kinstr=25.0,
        mlp=6.0,
    )


def light_task(name="light", accesses=4_000, seed=3, base=1 << 26):
    """Compute-bound: tiny footprint, low memory intensity."""
    return SimTask(
        name=name,
        generator=HotColdGenerator(64, 32, hot_fraction=0.95, base_block=base, seed=seed),
        total_accesses=accesses,
        accesses_per_kinstr=1.0,
        mlp=1.0,
    )


def mini_sched(quantum=300_000.0, smoothing=0.6):
    return SchedulerConfig(
        num_cores=2, timeslice_cycles=quantum, context_smoothing=smoothing
    )


class TestContentionPhysics:
    """The paper's core phenomenon must hold on the mini machine."""

    def run_mapping(self, groups, tasks):
        by_name = {t.name: t.tid for t in tasks}
        mapping = canonical_mapping([[by_name[n] for n in g] for g in groups])
        sim = MulticoreSimulator(
            mini_machine(), tasks, mapping=mapping,
            scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=5e7),
        )
        return sim.run()

    def test_mapping_controls_victim_performance(self):
        # victim+polluter same core (timeshare) must beat them concurrent.
        tasks = [victim_task(), polluter_task(), light_task("l1"), light_task("l2", seed=4, base=1 << 27)]
        together = self.run_mapping(
            [["victim", "polluter"], ["l1", "l2"]],
            [victim_task(), polluter_task(), light_task("l1"),
             light_task("l2", seed=4, base=1 << 27)],
        )
        apart = self.run_mapping(
            [["victim", "l1"], ["polluter", "l2"]],
            [victim_task(), polluter_task(), light_task("l1"),
             light_task("l2", seed=4, base=1 << 27)],
        )
        assert together.user_time("victim") < apart.user_time("victim")

    def test_lights_are_insensitive(self):
        a = self.run_mapping(
            [["victim", "polluter"], ["l1", "l2"]],
            [victim_task(), polluter_task(), light_task("l1"),
             light_task("l2", seed=4, base=1 << 27)],
        )
        b = self.run_mapping(
            [["victim", "l1"], ["polluter", "l2"]],
            [victim_task(), polluter_task(), light_task("l1"),
             light_task("l2", seed=4, base=1 << 27)],
        )
        ratio = a.user_time("l1") / b.user_time("l1")
        assert 0.9 < ratio < 1.1


class TestPhase1Pipeline:
    def make_tasks(self):
        return [
            victim_task(),
            light_task("l1"),
            polluter_task(),
            light_task("l2", seed=4, base=1 << 27),
        ]

    def signature_config(self):
        return SignatureConfig(num_cores=2, num_sets=128, ways=8)

    def test_monitor_reaches_decisions(self):
        monitor = UserLevelMonitor(
            WeightedInterferenceGraphPolicy(seed=1), interval_cycles=400_000.0
        )
        sim = MulticoreSimulator(
            mini_machine(),
            self.make_tasks(),
            signature_config=self.signature_config(),
            monitor=monitor,
            scheduler_config=mini_sched(),
        )
        result = sim.run(min_wall_cycles=8_000_000.0)
        assert len(result.decisions) >= 3
        assert result.majority_mapping is not None

    def test_weight_sort_identifies_heavies(self):
        # Occupancy-weight ranking must put victim+polluter above lights.
        monitor = UserLevelMonitor(WeightSortPolicy(), interval_cycles=400_000.0)
        tasks = self.make_tasks()
        sim = MulticoreSimulator(
            mini_machine(),
            tasks,
            signature_config=self.signature_config(),
            monitor=monitor,
            scheduler_config=mini_sched(),
        )
        result = sim.run(min_wall_cycles=8_000_000.0)
        by_name = {t.name: t.tid for t in tasks}
        majority = result.majority_mapping
        assert majority.core_of(by_name["victim"]) == majority.core_of(
            by_name["polluter"]
        )

    def test_signature_stats_consistent(self):
        sim = MulticoreSimulator(
            mini_machine(),
            self.make_tasks(),
            signature_config=self.signature_config(),
            scheduler_config=mini_sched(),
        )
        result = sim.run()
        stats = result.signature_stats
        # Tracked fills can't exceed cache misses; switches happened.
        assert 0 < stats.fills_tracked
        assert stats.context_switches > 0
        assert stats.evictions_tracked <= stats.fills_tracked


class TestAllMappingsInvariants:
    def test_mapping_times_positive_and_complete(self):
        from repro.perf.experiment import run_all_mappings

        tasks = [
            victim_task(),
            light_task("l1"),
            polluter_task(),
            light_task("l2", seed=4, base=1 << 27),
        ]
        times = run_all_mappings(
            mini_machine(),
            tasks,
            scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=5e7),
        )
        assert len(times) == 3
        for mapping_times in times.values():
            assert set(mapping_times) == {"victim", "polluter", "l1", "l2"}
            assert all(v > 0 for v in mapping_times.values())

    def test_victim_best_mapping_is_with_polluter(self):
        from repro.perf.experiment import run_all_mappings

        tasks = [
            victim_task(),
            light_task("l1"),
            polluter_task(),
            light_task("l2", seed=4, base=1 << 27),
        ]
        by_name = {t.name: t.tid for t in tasks}
        times = run_all_mappings(
            mini_machine(),
            tasks,
            scheduler_config=SchedulerConfig(num_cores=2, timeslice_cycles=5e7),
        )
        best_mapping = min(times, key=lambda m: times[m]["victim"])
        assert best_mapping.core_of(by_name["victim"]) == best_mapping.core_of(
            by_name["polluter"]
        )


class TestPageRemappingClaim:
    """Section 5.3: page-granularity remapping shouldn't change decisions.

    The signature operates at cache-line granularity with hashed indexing,
    so relocating a task's pages (new physical addresses, same behaviour)
    must yield the same schedule.
    """

    def majority_for(self, base_shift):
        tasks = [
            victim_task(),
            light_task("l1"),
            polluter_task(),
            light_task("l2", seed=4, base=1 << 27),
        ]
        # "Remap" the victim's pages: shift its address slice.
        tasks[0].generator.base_block += base_shift
        monitor = UserLevelMonitor(WeightSortPolicy(), interval_cycles=400_000.0)
        sim = MulticoreSimulator(
            mini_machine(),
            tasks,
            signature_config=SignatureConfig(num_cores=2, num_sets=128, ways=8),
            monitor=monitor,
            scheduler_config=mini_sched(),
        )
        result = sim.run(min_wall_cycles=8_000_000.0)
        names = {t.tid: t.name for t in tasks}
        return frozenset(
            frozenset(names[t] for t in g) for g in result.majority_mapping.groups
        )

    def test_remapped_pages_same_decision(self):
        # 0 pages vs 4096 pages (64-block pages x 512) of displacement.
        assert self.majority_for(0) == self.majority_for(512 * 64)


class TestProfileDrivenTasks:
    def test_profile_pipeline_smoke(self):
        profile = WorkloadProfile(
            name="toy",
            category="moderate",
            working_set_kb=16,
            hot_set_kb=8,
            accesses_per_kinstr=10.0,
            pattern="zipf",
            locality=0.85,
        )
        from repro.sched.process import task_from_profile

        task = task_from_profile(profile, instructions=500_000, seed=1)
        sim = MulticoreSimulator(mini_machine(), [task])
        result = sim.run()
        assert result.task("toy").completions >= 1
