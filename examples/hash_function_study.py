#!/usr/bin/env python
"""Scenario: choosing the Bloom-filter hash function (paper Section 5.3).

Compares the four indexing schemes — XOR folding, XOR-inverse-reverse,
modulo, and presence bits — on two axes:

1. signature *fidelity*: how well each scheme's occupancy weight tracks
   the true per-core resident footprint under contention, and how fast
   the bit vector saturates;
2. the saturation argument for k=1: adding hash functions fills a
   line-count-sized filter and destroys the signal.

Run:  python examples/hash_function_study.py
"""

import numpy as np

from repro.cache import SetAssociativeCache, tiny_cache
from repro.core import SignatureConfig, SignatureUnit
from repro.utils.tables import format_table
from repro.workloads.patterns import HotColdGenerator, StreamGenerator


def drive(unit: SignatureUnit, cache: SetAssociativeCache, steps: int = 40):
    """Interleave a reusing task (core 0) and a streaming task (core 1)."""
    reuser = HotColdGenerator(3000, 1500, hot_fraction=0.9, seed=1)
    streamer = StreamGenerator(1 << 22, base_block=1 << 24, seed=2)
    errors = []
    for _ in range(steps):
        for core, gen in ((0, reuser), (1, streamer)):
            blocks = gen.next_batch(512)
            r = cache.access_batch(core, blocks)
            unit.record_events(core, r.fills, r.fill_slots, r.evictions, r.evict_slots)
        true_resident = int(cache.occupancy_by_core()[0])
        measured = unit.core_occupancy(0)
        errors.append(abs(measured - true_resident) / max(true_resident, 1))
    return float(np.mean(errors)), unit.core_filters[1].popcount() / unit.num_entries


def main() -> None:
    rows = []
    for kind in ["xor", "xor_inverse_reverse", "modulo", "presence"]:
        cache = SetAssociativeCache(tiny_cache(sets=512, ways=8), num_cores=2)
        unit = SignatureUnit(
            SignatureConfig(num_cores=2, num_sets=512, ways=8, hash_kind=kind)
        )
        err, streamer_fill = drive(unit, cache)
        rows.append([kind, err, streamer_fill])
    print(
        format_table(
            ["indexing scheme", "footprint tracking error", "streamer CF fill"],
            rows,
            title="Section 5.3: hash schemes under contention",
            float_digits=3,
        )
    )

    rows = []
    for k in [1, 2, 4]:
        unit = SignatureUnit(
            SignatureConfig(num_cores=1, num_sets=512, ways=8, num_hashes=k,
                            counter_bits=8)
        )
        blocks = np.random.default_rng(0).integers(0, 1 << 22, 3000)
        unit.record_fill_batch(0, blocks)
        rows.append([k, unit.core_occupancy(0) / unit.num_entries])
    print()
    print(
        format_table(
            ["hash functions (k)", "filter fill fraction"],
            rows,
            title="why the paper uses k=1: multiple hashes saturate the filter",
            float_digits=3,
        )
    )
    print(
        "\nReading: the three hash schemes track comparably; presence bits "
        "are exact but\n(being 1:1 with lines) saturate for heavy users, "
        "and k>1 fills the filter —\nboth of which destroy the scheduling "
        "signal (paper Figure 14)."
    )


if __name__ == "__main__":
    main()
