"""Tests for the three allocation policies and the interference graph."""

import numpy as np
import pytest

from repro.alloc.base import group_sizes
from repro.alloc.graph import interference_matrix
from repro.alloc.interference import InterferenceGraphPolicy
from repro.alloc.weight_sort import WeightSortPolicy
from repro.alloc.weighted import WeightedInterferenceGraphPolicy
from repro.errors import AllocationError
from repro.sched.syscall import TaskView


def view(tid, name, occupancy, symbiosis, last_core=0, process_id=None, valid=True):
    return TaskView(
        tid=tid,
        name=name,
        process_id=process_id if process_id is not None else tid,
        last_core=last_core,
        occupancy=float(occupancy),
        symbiosis=np.asarray(symbiosis, dtype=np.float64),
        valid=valid,
    )


class TestGroupSizes:
    def test_even(self):
        assert group_sizes(4, 2) == [2, 2]

    def test_uneven(self):
        assert group_sizes(7, 3) == [3, 2, 2]

    def test_fewer_tasks_than_cores(self):
        assert group_sizes(2, 4) == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(AllocationError):
            group_sizes(3, 0)


class TestWeightSort:
    def test_heavy_tasks_grouped(self):
        # Section 3.3.1: heavy processes herded onto the same core.
        views = [
            view(0, "heavy1", 1000, [1, 1]),
            view(1, "light1", 10, [1, 1]),
            view(2, "heavy2", 900, [1, 1]),
            view(3, "light2", 5, [1, 1]),
        ]
        mapping = WeightSortPolicy().allocate(views, 2)
        assert mapping.core_of(0) == mapping.core_of(2)
        assert mapping.core_of(1) == mapping.core_of(3)

    def test_deterministic_tie_break(self):
        views = [view(i, f"t{i}", 100, [1, 1]) for i in range(4)]
        a = WeightSortPolicy().allocate(views, 2)
        b = WeightSortPolicy().allocate(views, 2)
        assert a == b

    def test_fewer_tasks_than_cores_gives_affinity(self):
        # Paper: with fewer processes than cores the algorithms degenerate
        # to cache-affinity scheduling (one task per core).
        views = [view(0, "a", 50, [1, 1]), view(1, "b", 40, [1, 1])]
        mapping = WeightSortPolicy().allocate(views, 4)
        assert mapping.core_of(0) != mapping.core_of(1)

    def test_invalid_views_rejected(self):
        views = [view(0, "a", 50, [1, 1], valid=False)]
        with pytest.raises(AllocationError):
            WeightSortPolicy().allocate(views, 2)

    def test_empty_rejected(self):
        with pytest.raises(AllocationError):
            WeightSortPolicy().allocate([], 2)


class TestInterferenceMatrix:
    def test_cross_core_edges_only(self):
        views = [
            view(0, "a", 10, [100, 200], last_core=0),
            view(1, "b", 10, [100, 200], last_core=0),
            view(2, "c", 10, [300, 400], last_core=1),
        ]
        tids, w = interference_matrix(views, weighted=False)
        assert w[0, 1] == 0.0  # same core
        assert w[0, 2] > 0.0
        assert w[1, 2] > 0.0

    def test_unweighted_edge_value(self):
        # w(P,Q) = 1/sym_P[core(Q)] + 1/sym_Q[core(P)]
        views = [
            view(0, "a", 10, [100, 4], last_core=0),
            view(1, "b", 10, [2, 100], last_core=1),
        ]
        _, w = interference_matrix(views, weighted=False)
        assert w[0, 1] == pytest.approx(1 / 4 + 1 / 2)

    def test_weighted_edge_value(self):
        # w(P,Q) = W_P/sym_P[core(Q)] + W_Q/sym_Q[core(P)] (Sec 3.3.3)
        views = [
            view(0, "a", 8, [100, 4], last_core=0),
            view(1, "b", 6, [2, 100], last_core=1),
        ]
        _, w = interference_matrix(views, weighted=True)
        assert w[0, 1] == pytest.approx(8 / 4 + 6 / 2)

    def test_symmetric(self):
        views = [
            view(0, "a", 8, [10, 4], last_core=0),
            view(1, "b", 6, [2, 30], last_core=1),
            view(2, "c", 5, [7, 9], last_core=0),
        ]
        _, w = interference_matrix(views, weighted=True)
        assert np.allclose(w, w.T)

    def test_duplicate_tids_rejected(self):
        views = [view(0, "a", 1, [1, 1]), view(0, "b", 1, [1, 1])]
        with pytest.raises(AllocationError):
            interference_matrix(views, weighted=False)


class TestGraphPolicies:
    def _views_with_strong_pair(self):
        """An asymmetric (3+1) snapshot where task 0 interferes most with 3.

        Note: on a *balanced* bipartite snapshot the pairing objective is
        additively separable (every cross pairing ties exactly); the
        discriminating signal the paper's algorithm acts on comes from
        asymmetric placements like this one, which occur naturally during
        phase-1 churn (see repro.alloc.graph docstring).
        """
        return [
            view(0, "mcf", 1000, [50000, 100], last_core=0),
            view(1, "povray", 10, [50000, 40000], last_core=0),
            view(2, "gobmk", 20, [40000, 50000], last_core=0),
            view(3, "libq", 900, [100, 50000], last_core=1),
        ]

    @pytest.mark.parametrize(
        "policy_cls", [InterferenceGraphPolicy, WeightedInterferenceGraphPolicy]
    )
    def test_high_interference_pair_grouped(self, policy_cls):
        mapping = policy_cls().allocate(self._views_with_strong_pair(), 2)
        assert mapping.core_of(0) == mapping.core_of(3)

    def test_weighted_damps_low_occupancy_noise(self):
        # Section 3.3.3's motivating case: a near-empty RBV yields a
        # spuriously high raw interference metric (symbiosis clamped low),
        # fooling the unweighted policy; multiplying by occupancy weight
        # lets the truly heavy process win the polluter's core group.
        views = [
            view(0, "noisy", 1, [1, 1], last_core=0),       # tiny footprint
            view(1, "big1", 1000, [30000, 500], last_core=0),
            view(2, "idle", 1, [30000, 30000], last_core=0),
            view(3, "big2", 1000, [500, 30000], last_core=1),
        ]
        weighted = WeightedInterferenceGraphPolicy().allocate(views, 2)
        assert weighted.core_of(1) == weighted.core_of(3)
        unweighted = InterferenceGraphPolicy().allocate(views, 2)
        assert unweighted.core_of(0) == unweighted.core_of(3)  # fooled

    def test_policies_have_names(self):
        assert WeightSortPolicy.name == "weight_sort"
        assert InterferenceGraphPolicy().name == "interference_graph"
        assert WeightedInterferenceGraphPolicy().name == "weighted_interference_graph"

    def test_mapping_covers_all_tasks(self):
        views = self._views_with_strong_pair()
        mapping = WeightedInterferenceGraphPolicy().allocate(views, 2)
        assert mapping.task_ids == {0, 1, 2, 3}

    @pytest.mark.parametrize("method", ["exhaustive", "kl", "spectral"])
    def test_solver_methods_work(self, method):
        mapping = WeightedInterferenceGraphPolicy(method=method).allocate(
            self._views_with_strong_pair(), 2
        )
        assert mapping.core_of(0) == mapping.core_of(3)
