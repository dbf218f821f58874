"""The paper's three symbiotic allocation algorithms, the multithreaded
two-phase adaptation, the MIN-CUT solver suite and the user-level monitor."""

from repro.alloc.base import AllocationPolicy, group_sizes
from repro.alloc.graph import interference_matrix
from repro.alloc.interference import InterferenceGraphPolicy
from repro.alloc.mincut import (
    MINCUT_METHODS,
    bisect_min_cut,
    cut_weight,
    exhaustive_bisection,
    intra_weight,
    kernighan_lin,
    partition_min_cut,
    spectral_rounding,
)
from repro.alloc.monitor import UserLevelMonitor
from repro.alloc.multithreaded import PIN_WEIGHT, TwoPhasePolicy
from repro.alloc.weight_sort import WeightSortPolicy
from repro.alloc.weighted import WeightedInterferenceGraphPolicy

__all__ = [
    "AllocationPolicy",
    "group_sizes",
    "interference_matrix",
    "InterferenceGraphPolicy",
    "MINCUT_METHODS",
    "bisect_min_cut",
    "cut_weight",
    "exhaustive_bisection",
    "intra_weight",
    "kernighan_lin",
    "partition_min_cut",
    "spectral_rounding",
    "UserLevelMonitor",
    "PIN_WEIGHT",
    "TwoPhasePolicy",
    "WeightSortPolicy",
    "WeightedInterferenceGraphPolicy",
]
