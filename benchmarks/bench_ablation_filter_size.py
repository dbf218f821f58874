"""Ablation — Bloom-filter size vs footprint-tracking fidelity.

The paper pegs filter entries to the cache line count (load factor 1),
where hash aliasing is the dominant error source in the occupancy weight.
This harness sweeps the entries/lines ratio and measures the mean relative
tracking error against the exact resident-line count under contention.
"""

import numpy as np
from conftest import run_once

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from repro.core.signature import SignatureConfig, SignatureUnit
from repro.utils.tables import format_table
from repro.workloads.patterns import HotColdGenerator, StreamGenerator


def _tracking_error(entries_multiplier: int, steps: int = 60) -> float:
    sets, ways = 512, 8
    cache = SetAssociativeCache(tiny_cache(sets=sets, ways=ways), num_cores=2)
    unit = SignatureUnit(
        SignatureConfig(num_cores=2, num_sets=sets * entries_multiplier, ways=ways)
    )
    reuser = HotColdGenerator(3000, 1500, hot_fraction=0.9, seed=1)
    streamer = StreamGenerator(1 << 22, base_block=1 << 24, seed=2)
    errors = []
    for _ in range(steps):
        for core, gen in ((0, reuser), (1, streamer)):
            blocks = gen.next_batch(512)
            r = cache.access_batch(core, blocks)
            unit.record_events(core, r.fills, r.fill_slots, r.evictions, r.evict_slots)
        truth = int(cache.occupancy_by_core()[0])
        errors.append(abs(unit.core_occupancy(0) - truth) / max(truth, 1))
    return float(np.mean(errors))


def bench_ablation_filter_size(benchmark, report, full_scale):
    multipliers = (1, 2, 4, 8) if full_scale else (1, 2, 4)
    errors = run_once(
        benchmark, lambda: {m: _tracking_error(m) for m in multipliers}
    )
    report(
        "ablation_filter_size",
        format_table(
            ["entries / cache lines", "mean tracking error"],
            [[m, e] for m, e in errors.items()],
            title="Ablation: filter size vs occupancy-tracking error",
            float_digits=3,
        ),
    )
    # Shape: over-provisioning the filter monotonically improves fidelity.
    values = list(errors.values())
    assert values[-1] <= values[0]
    assert values[0] < 0.8  # even load factor 1 is usable (the paper's pick)
