"""A simulation depends on the order of its task ids, not their values.

Task ids come from a process-wide counter, so the same mix gets other
ids when the process has built other tasks first. Under any strictly
increasing relabelling of the ids, a pinned-mapping run must give the
same per-task cycles, completions and context switches, and a phase-1
run under the monitor must give those and the same decisions, read
through the relabelling.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alloc import (
    InterferenceGraphPolicy,
    UserLevelMonitor,
    WeightedInterferenceGraphPolicy,
    WeightSortPolicy,
)
from repro.cache.config import tiny_cache
from repro.perf.machine import MachineConfig, core2duo
from repro.perf.runner import build_tasks, default_signature_config, run_mix
from repro.sched.affinity import Mapping, balanced_mappings
from repro.sched.os_model import SchedulerConfig
from repro.workloads.spec import spec_profile_names

POLICIES = (WeightSortPolicy, InterferenceGraphPolicy,
            WeightedInterferenceGraphPolicy)


def labelled_tasks(names, tids, instructions, seed):
    """The mix's tasks with task (and process) ids set to *tids*."""
    tasks = build_tasks(names, instructions=instructions, seed=seed)
    for task, tid in zip(tasks, tids):
        task.tid = tid
        task.process_id = tid
    return tasks


def relabel(mapping, tids):
    """*mapping* over task indices, with index ``i`` renamed ``tids[i]``."""
    return Mapping.from_groups([[tids[i] for i in g] for g in mapping.groups])


def per_task(result, tids):
    """Per-task counts in build order (task ``i`` has id ``tids[i]``)."""
    by_tid = {t.tid: t for t in result.tasks}
    return [
        (by_tid[tid].name, by_tid[tid].first_completion_cycles,
         by_tid[tid].user_cycles, by_tid[tid].completions,
         by_tid[tid].context_switches)
        for tid in tids
    ]


@st.composite
def cases(draw):
    cores = draw(st.integers(min_value=1, max_value=4))
    machine = MachineConfig(
        name="tiny",
        num_cores=cores,
        l2=tiny_cache(
            sets=1 << draw(st.integers(min_value=2, max_value=6)),
            ways=draw(st.integers(min_value=1, max_value=4)),
        ),
        shared_l2=draw(st.booleans()),
    )
    count = draw(st.integers(min_value=1, max_value=2 * cores))
    names = draw(
        st.lists(st.sampled_from(spec_profile_names()), min_size=count,
                 max_size=count, unique=True)
    )
    gaps = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=count,
                 max_size=count)
    )
    tids, tid = [], -1
    for gap in gaps:
        tid += 1 + gap
        tids.append(tid)
    cores_of = draw(
        st.lists(st.integers(min_value=0, max_value=cores - 1),
                 min_size=count, max_size=count)
    )
    mapping = Mapping.from_groups(
        [[i for i in range(count) if cores_of[i] == c] for c in range(cores)]
    )
    policy = draw(st.sampled_from(POLICIES))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return machine, names, tids, mapping, policy, seed


def pinned(machine, names, tids, mapping, seed, instructions=20_000,
           batch_accesses=64):
    tasks = labelled_tasks(names, tids, instructions, seed)
    result = run_mix(machine, tasks, mapping=relabel(mapping, tids),
                     batch_accesses=batch_accesses)
    return per_task(result, tids)


def monitored(machine, names, tids, policy_cls, seed):
    sig = default_signature_config(machine)
    policy = (policy_cls() if policy_cls is WeightSortPolicy
              else policy_cls(seed=seed))
    monitor = UserLevelMonitor(policy, interval_cycles=150_000.0, apply=True,
                               signature_capacity=sig.num_entries)
    tasks = labelled_tasks(names, tids, 20_000, seed)
    result = run_mix(
        machine, tasks, monitor=monitor, signature_config=sig,
        batch_accesses=64,
        scheduler_config=SchedulerConfig(num_cores=machine.num_cores,
                                         timeslice_cycles=50_000.0,
                                         context_smoothing=0.6),
        min_wall_cycles=600_000.0,
    )
    index_of = {tid: i for i, tid in enumerate(tids)}
    decisions = [
        Mapping.from_groups([[index_of[t] for t in g] for g in d.groups])
        for d in result.decisions
    ]
    return per_task(result, tids), decisions


#: Shrunk from a generated case: the monitor's remaps migrated tids 0-5
#: and 8 to one core in hash order, which put tid 8 first.
MIGRATION_ORDER = (
    MachineConfig(name="tiny", num_cores=4, l2=tiny_cache(sets=4, ways=2)),
    ["astar", "bzip2", "gcc", "gobmk", "hmmer", "perlbench", "povray"],
    [0, 1, 2, 3, 4, 5, 8],
    Mapping.from_groups([range(7), [], [], []]),
    WeightSortPolicy,
    0,
)


@settings(max_examples=30, deadline=None)
@given(cases())
@example(MIGRATION_ORDER)
def test_relabelled_runs_are_identical(case):
    machine, names, tids, mapping, policy, seed = case
    indices = list(range(len(names)))
    assert pinned(machine, names, tids, mapping, seed) == pinned(
        machine, names, indices, mapping, seed
    )
    if machine.shared_l2:
        assert monitored(machine, names, tids, policy, seed) == monitored(
            machine, names, indices, policy, seed
        )


@pytest.mark.parametrize(
    "mapping",
    balanced_mappings(range(4), 2),
    ids=lambda m: "-".join("".join(map(str, sorted(g))) for g in m.groups),
)
def test_showcase_mix_ignores_its_tid_offset(mapping):
    """Tids 5-8 once queued in another order than tids 0-3 (hash order)."""
    names = ["astar", "hmmer", "povray", "perlbench"]
    runs = [
        pinned(core2duo(), names, tids, mapping, seed=4,
               instructions=100_000, batch_accesses=256)
        for tids in ([0, 1, 2, 3], [5, 6, 7, 8])
    ]
    assert runs[0] == runs[1]
