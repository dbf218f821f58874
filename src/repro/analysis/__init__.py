"""Result handling: figure series builders, fairness metrics, persistence,
paper-style report rendering."""

from repro.analysis.fairness import (
    fairness_report,
    jain_index,
    slowdowns,
    unfairness,
)
from repro.analysis.figures import (
    POLICIES,
    CounterSeries,
    figure1_concept,
    figure2_counters_vs_footprint,
    figure3a_private_pairs,
    figure3b_shared_pairs,
    figure5_occupancy_tracking,
    figure10_native_sweep,
    figure12_parsec_sweep,
    figure13_algorithm_comparison,
    figure14_hash_comparison,
    table1_mapping_runtimes,
)
from repro.analysis.report import (
    render_counter_series,
    render_mix_comparison,
    render_pairwise,
    render_sweep,
    render_table1,
)
from repro.analysis.results import (
    load_json,
    mix_result_to_dict,
    save_json,
    to_jsonable,
)

__all__ = [
    "fairness_report",
    "jain_index",
    "slowdowns",
    "unfairness",
    "POLICIES",
    "CounterSeries",
    "figure1_concept",
    "figure2_counters_vs_footprint",
    "figure3a_private_pairs",
    "figure3b_shared_pairs",
    "figure5_occupancy_tracking",
    "figure10_native_sweep",
    "figure12_parsec_sweep",
    "figure13_algorithm_comparison",
    "figure14_hash_comparison",
    "table1_mapping_runtimes",
    "render_counter_series",
    "render_mix_comparison",
    "render_pairwise",
    "render_sweep",
    "render_table1",
    "load_json",
    "mix_result_to_dict",
    "save_json",
    "to_jsonable",
]
