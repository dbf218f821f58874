"""Tests for figure series builders and report rendering (small scales)."""

import pytest

from repro.analysis.figures import (
    POLICIES,
    CounterSeries,
    figure1_concept,
    figure2_counters_vs_footprint,
    table1_mapping_runtimes,
)
from repro.analysis.report import (
    render_counter_series,
    render_mix_comparison,
    render_pairwise,
    render_sweep,
    render_table1,
)
from repro.cache.config import CacheConfig, CacheGeometry
from repro.perf.experiment import (
    MixResult,
    PairwiseResult,
    SweepResult,
)
from repro.perf.runner import build_tasks
from repro.sched.affinity import canonical_mapping


def small_l2():
    return CacheConfig(
        name="small",
        geometry=CacheGeometry(size_bytes=256 * 1024, line_bytes=64, ways=8),
    )


class TestFigure1:
    def test_concept_shape(self):
        out = figure1_concept()
        # Both apps miss 100%; footprints differ 4x (paper: 8x with finer
        # strides — the point is identical miss rate, different footprint).
        assert out["A"]["miss_rate"] == 1.0
        assert out["B"]["miss_rate"] == 1.0
        assert out["A"]["footprint_lines"] == 1.0
        assert out["B"]["footprint_lines"] == 4.0


class TestFigure2Series:
    @pytest.fixture(scope="class")
    def series(self):
        # The default 1 MB measurement cache: phase working sets must stay
        # below cache size for the Figure 2/5 regime (see figures.py).
        return figure2_counters_vs_footprint(laps=1)

    def test_series_lengths_align(self, series):
        n = len(series.true_footprint)
        assert n > 10
        for name in (
            "resident_lines",
            "l2_misses",
            "tlb_misses",
            "page_faults",
            "occupancy_weight",
            "rbv_occupancy",
        ):
            assert len(getattr(series, name)) == n

    def test_occupancy_tracks_resident_better_than_counters_track_ws(self, series):
        # The joint Figure 2 + Figure 5 claim.
        fig5 = series.correlation("occupancy_weight", "resident_lines")
        fig2_miss = abs(series.correlation("l2_misses"))
        assert fig5 > fig2_miss

    def test_tracking_error_bounded(self, series):
        assert 0.0 <= series.tracking_error() < 1.0

    def test_correlation_degenerate_series(self):
        s = CounterSeries(window_accesses=10)
        s.true_footprint = [5, 5]
        s.l2_misses = [1, 2]
        assert s.correlation("l2_misses") == 0.0


class TestTable1:
    def test_structure(self):
        names, times = table1_mapping_runtimes(instructions=100_000)
        assert names == ["povray", "gobmk", "libquantum", "hmmer"]
        assert len(times) == 3
        text = render_table1(names, times, clock_hz=2.6e9)
        assert "povray" in text and "Table 1" in text

    def test_keys_are_task_indices_whatever_the_process_built(self):
        names, fresh = table1_mapping_runtimes(instructions=100_000)
        build_tasks(["mcf", "astar"] * 3, instructions=1_000)
        _, later = table1_mapping_runtimes(instructions=100_000)
        assert list(later) == [
            canonical_mapping([[0, 1], [2, 3]]),
            canonical_mapping([[0, 2], [1, 3]]),
            canonical_mapping([[0, 3], [1, 2]]),
        ]
        assert later == fresh
        assert render_table1(names, later, 2.6e9) == render_table1(
            names, fresh, 2.6e9
        )


class TestRenderers:
    def test_render_pairwise(self):
        result = PairwiseResult(
            names=("a", "b"),
            solo_times={"a": 100.0, "b": 100.0},
            pair_times={("a", "b"): {"a": 150.0, "b": 110.0}},
        )
        text = render_pairwise(result, "Figure 3")
        assert "Figure 3" in text
        assert "50.0%" in text

    def test_render_sweep(self):
        sweep = SweepResult()
        a = canonical_mapping([[0, 1], [2, 3]])
        b = canonical_mapping([[0, 2], [1, 3]])
        sweep.add(
            MixResult(
                names=("x", "y"),
                mapping_times={a: {"x": 100.0, "y": 50.0}, b: {"x": 80.0, "y": 55.0}},
                chosen_mapping=b,
                default_mapping=a,
            )
        )
        text = render_sweep(sweep, "Figure 10")
        assert "Figure 10" in text
        assert "20.0%" in text  # x improved 20%
        assert "#" in text  # bar chart

    def test_render_mix_comparison(self):
        a = canonical_mapping([[0, 1], [2, 3]])
        b = canonical_mapping([[0, 2], [1, 3]])
        mix = MixResult(
            names=("x", "y"),
            mapping_times={a: {"x": 100.0, "y": 50.0}, b: {"x": 80.0, "y": 55.0}},
            chosen_mapping=b,
            default_mapping=a,
        )
        text = render_mix_comparison({"p1": [mix], "p2": [mix]}, "Figure 13")
        assert "p1" in text and "x+y" in text

    def test_render_counter_series(self):
        series = figure2_counters_vs_footprint(
            window_accesses=5000,
            laps=1,
            machine_l2=small_l2(),
            scrubber_accesses_per_window=2000,
        )
        text = render_counter_series(series)
        assert "Figure 2" in text and "Figure 5" in text


class TestPolicies:
    def test_policy_registry(self):
        assert set(POLICIES) == {
            "weight_sort",
            "interference_graph",
            "weighted_interference_graph",
        }
        for cls in POLICIES.values():
            assert hasattr(cls, "allocate")
