"""Tests for the analytical footprint-composition backend."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from repro.errors import ConfigurationError
from repro.estimate.analytical import (
    AnalyticalModel,
    MappingPrediction,
    TaskPrediction,
    analytical_simulation,
)
from repro.estimate.options import EstimatorOptions
from repro.estimate.reuse import profile_task
from repro.perf.machine import core2duo, p4xeon
from repro.perf.runner import build_tasks, run_mix


def profiles_for(names, instructions=120_000, seed=0):
    tasks = build_tasks(names, instructions=instructions, seed=seed)
    return [profile_task(t) for t in tasks]


class ReferenceModel:
    """The per-task fixed point, recomputing every task's own footprint
    volume inside each prediction and calling ``gammainc`` once per task.

    It shares only the profiles and their binning with
    :class:`AnalyticalModel`, and follows the same order of floating-point
    operations, so the two must agree bit for bit.
    """

    def __init__(self, machine, profiles):
        self.machine, self.profiles = machine, profiles
        self.options = EstimatorOptions()
        self.binned = [p.binned_reuses(self.options.reuse_bins) for p in profiles]

    def own_volume(self, i):
        prof = self.profiles[i]
        return prof.footprint(
            np.minimum(self.binned[i][0], prof.refs).astype(np.int64)
        )

    def miss_rate(self, i, volume):
        prof = self.profiles[i]
        if len(self.binned[i][0]) == 0:
            return 1.0
        geometry = self.machine.l2.geometry
        p_miss = gammainc(geometry.ways, volume / geometry.num_sets)
        colds = prof.refs - len(prof.reuse_times)
        return float((colds + p_miss @ self.binned[i][1]) / prof.refs)

    def cycles_per_access(self, i, miss_rate, other_intensity):
        prof, timing = self.profiles[i], self.machine.timing
        return (
            1000.0 / prof.accesses_per_kinstr * timing.cpi_base
            + (1.0 - miss_rate) * timing.l2_hit_cycles
            + miss_rate * timing.miss_cycles(prof.mlp, other_intensity)
            + timing.per_access_cycles
        )

    def task(self, i, miss_rate, cpa):
        prof = self.profiles[i]
        return TaskPrediction(i, prof.name, miss_rate, cpa, cpa * prof.total_refs)

    def predict_solo(self, i):
        mr = self.miss_rate(i, self.own_volume(i))
        return self.task(i, mr, self.cycles_per_access(i, mr, 0.0))

    def predict(self, groups):
        norm = tuple(tuple(sorted(g)) for g in groups)
        members = [i for g in norm for i in g]
        core_of = {i: c for c, g in enumerate(norm) for i in g}
        gsize = {i: len(norm[core_of[i]]) for i in members}
        solo = {i: self.predict_solo(i) for i in members}
        mr = {i: solo[i].miss_rate for i in members}
        cpa = {i: solo[i].cycles_per_access for i in members}
        for _ in range(self.options.fixed_point_iterations):
            volume = {i: self.own_volume(i) for i in members}
            for j in members:
                targets = [
                    i
                    for i in members
                    if i != j
                    and (self.machine.shared_l2 or core_of[i] == core_of[j])
                ]
                if not targets:
                    continue
                queries = [
                    self.binned[i][0] * ((cpa[i] * gsize[i]) / (cpa[j] * gsize[j]))
                    for i in targets
                ]
                pressure = self.profiles[j].footprint_extended(
                    np.concatenate(queries)
                )
                offset = 0
                for i, query in zip(targets, queries):
                    volume[i] = volume[i] + pressure[offset : offset + len(query)]
                    offset += len(query)
            mr = {i: self.miss_rate(i, volume[i]) for i in members}
            cpa = {
                i: self.cycles_per_access(
                    i,
                    mr[i],
                    sum(
                        mr[j] / (cpa[j] * gsize[j])
                        for j in members
                        if core_of[j] != core_of[i]
                    ),
                )
                for i in members
            }
        tasks = tuple(self.task(i, mr[i], cpa[i]) for i in sorted(members))
        wall = max(
            (sum(tasks[i].user_cycles for i in g) for g in norm if g),
            default=0.0,
        )
        refs = sum(self.profiles[i].refs for i in members)
        agg = sum(mr[i] * self.profiles[i].refs for i in members) / refs
        return MappingPrediction(norm, tasks, wall, agg)


#: Profile pool for the differential test: libquantum has no reuses;
#: mcf, milc and astar have more distinct reuse times than the default
#: reuse bins, so their reuses are binned.
POOL = ("mcf", "libquantum", "povray", "milc", "astar")
MACHINES = {"core2duo": core2duo, "p4xeon": p4xeon}


@functools.lru_cache(maxsize=None)
def pool_profiles():
    tasks = build_tasks(list(POOL), instructions=1_000_000, seed=0)
    return tuple(profile_task(t) for t in tasks)


@st.composite
def scenarios(draw):
    """A machine, 1–3 pool tasks, and 1–3 mappings of them onto its
    two cores, some followed by empty groups."""
    machine = draw(st.sampled_from(sorted(MACHINES)))
    picks = draw(
        st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=3, unique=True)
    )
    k, mappings = len(picks), []
    for _ in range(draw(st.integers(1, 3))):
        cores = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        groups = [[i for i, c in enumerate(cores) if c == core] for core in (0, 1)]
        mappings.append(groups + [[]] * draw(st.integers(0, 2)))
    return machine, picks, mappings


class TestAnalyticalModel:
    def test_solo_prediction_is_sane(self):
        model = AnalyticalModel(core2duo(), profiles_for(["mcf"]))
        solo = model.predict_solo(0)
        assert 0.0 <= solo.miss_rate <= 1.0
        assert solo.user_cycles > 0
        assert solo.cycles_per_access > 0

    def test_co_running_does_not_reduce_misses(self):
        machine = core2duo()
        profiles = profiles_for(["mcf", "milc"])
        model = AnalyticalModel(machine, profiles)
        solo = model.predict_solo(0)
        shared = model.predict([[0], [1]]).tasks[0]
        assert shared.miss_rate >= solo.miss_rate - 1e-9
        assert shared.user_cycles >= solo.user_cycles - 1e-9

    def test_prediction_is_deterministic(self):
        machine = core2duo()
        profiles = profiles_for(["mcf", "povray"])
        a = AnalyticalModel(machine, profiles).predict([[0], [1]])
        b = AnalyticalModel(machine, profiles).predict([[0], [1]])
        assert a == b

    def test_binning_changes_little(self):
        """Coarse reuse bins track the unbinned fixed point closely."""
        machine = core2duo()
        names = ["mcf", "milc"]
        fine = AnalyticalModel(
            machine,
            profiles_for(names),
            EstimatorOptions(reuse_bins=1_000_000),
        ).predict([[0], [1]])
        coarse = AnalyticalModel(
            machine, profiles_for(names), EstimatorOptions(reuse_bins=128)
        ).predict([[0], [1]])
        for f, c in zip(fine.tasks, coarse.tasks):
            assert c.miss_rate == pytest.approx(f.miss_rate, abs=0.01)

    def test_rejects_empty_profiles(self):
        with pytest.raises(ConfigurationError):
            AnalyticalModel(core2duo(), [])

    def test_rejects_tasks_beyond_the_last_core(self):
        model = AnalyticalModel(core2duo(), profiles_for(["mcf", "milc", "povray"]))
        with pytest.raises(ConfigurationError, match="core 2"):
            model.predict([[0], [1], [2]])
        with pytest.raises(ConfigurationError, match="core 2"):
            model.predict([[], [], [0, 1, 2]])
        # Trailing empty groups name no core and stay accepted.
        padded = model.predict([[0, 1], [2], [], []])
        assert padded.tasks == model.predict([[0, 1], [2]]).tasks


class TestPredictDifferential:
    """Predictions equal the reference fixed point bit for bit."""

    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    # Private L2, groups of one to three tasks, a task without reuses.
    @example(("p4xeon", [0, 1, 3], [[[0, 1], [2]], [[2], [0, 1], []], [[0, 1, 2], []]]))
    @example(("core2duo", [0, 2, 4], [[[0], [1, 2]], [[0, 1, 2], []], [[1], [0, 2]]]))
    # Single-task models, with and without reuses.
    @example(("core2duo", [1], [[[0]], [[], [0], []]]))
    @example(("p4xeon", [0], [[[0], []], [[], [0]]]))
    def test_matches_reference(self, scenario):
        name, picks, mappings = scenario
        machine = MACHINES[name]()
        profiles = [pool_profiles()[p] for p in picks]
        model = AnalyticalModel(machine, profiles)
        reference = ReferenceModel(machine, profiles)
        # One model serves every mapping, each twice and interleaved: a
        # prediction that changed the model's state shows in a later one.
        for groups in mappings + mappings[::-1]:
            assert repr(model.predict(groups)) == repr(reference.predict(groups))
        for i in range(len(profiles)):
            assert repr(model.predict_solo(i)) == repr(reference.predict_solo(i))


class TestAnalyticalSimulation:
    def test_result_shape_matches_exact(self):
        machine = core2duo()
        tasks = build_tasks(["mcf", "povray"], instructions=100_000, seed=0)
        exact = run_mix(machine, tasks)
        tasks = build_tasks(["mcf", "povray"], instructions=100_000, seed=0)
        predicted = analytical_simulation(machine, tasks)
        assert {t.name for t in predicted.tasks} == {
            t.name for t in exact.tasks
        }
        assert predicted.wall_cycles > 0
        assert 0.0 <= predicted.l2_miss_rate <= 1.0

    def test_tracks_exact_miss_rate(self):
        """Whole-mix miss rate lands near the simulated ground truth."""
        machine = core2duo()
        tasks = build_tasks(["mcf", "milc"], instructions=200_000, seed=0)
        exact = run_mix(machine, tasks)
        tasks = build_tasks(["mcf", "milc"], instructions=200_000, seed=0)
        predicted = analytical_simulation(machine, tasks)
        assert predicted.l2_miss_rate == pytest.approx(
            exact.l2_miss_rate, abs=0.05
        )

    def test_distinguishes_mappings(self):
        """Private-L2 co-location on one core must beat nothing; the
        model has to produce *different* numbers for different groups."""
        machine = core2duo()
        tasks = build_tasks(
            ["mcf", "milc", "povray", "astar"],
            instructions=100_000,
            seed=0,
        )
        preds = {}
        for groups in ([[0, 1], [2, 3]], [[0, 2], [1, 3]]):
            rebuilt = build_tasks(
                ["mcf", "milc", "povray", "astar"],
                instructions=100_000,
                seed=0,
            )
            from repro.sched.affinity import Mapping

            preds[str(groups)] = analytical_simulation(
                machine,
                rebuilt,
                mapping=Mapping.from_groups(
                    [[rebuilt[i].tid for i in g] for g in groups]
                ),
            )
        values = [p.wall_cycles for p in preds.values()]
        assert values[0] != values[1]
        del tasks
