"""Batch-level differential test of the LRU cache against a naive oracle.

The oracle keeps one ``OrderedDict`` per set (least recent first), hands
out physical ways in fill order and remembers which core filled each
line. It shares no code or representation with
:class:`~repro.cache.cache.SetAssociativeCache`, so agreement on whole
multi-core batches checks the vectorised round-based LRU path. Scenarios
may reset the cache between batches; the oracle then restarts empty, so
a reset that left recency state behind would place later fills in other
ways.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import tiny_cache
from tests.engines import available_engines, on_engine


class OracleLRU:
    """Deliberately naive LRU: per-set ordered dict of block -> (way, core)."""

    def __init__(self, sets, ways, cores):
        self.sets, self.ways, self.cores = sets, ways, cores
        self.lines = [OrderedDict() for _ in range(sets)]

    def access_batch(self, core, blocks):
        hits, fills, fill_slots = 0, [], []
        evictions, evict_slots = [], []
        for block in blocks:
            s = block % self.sets
            lines = self.lines[s]
            if block in lines:
                hits += 1
                way, owner = lines.pop(block)
                lines[block] = (way, owner)
                continue
            if len(lines) == self.ways:
                victim, (way, _) = lines.popitem(last=False)
                evictions.append(victim)
                evict_slots.append(s * self.ways + way)
            else:
                way = len(lines)
            lines[block] = (way, core)
            fills.append(block)
            fill_slots.append(s * self.ways + way)
        return {
            "hits": hits,
            "misses": len(fills),
            "fills": fills,
            "fill_slots": fill_slots,
            "evictions": evictions,
            "evict_slots": evict_slots,
        }

    def contains(self, block):
        return block in self.lines[block % self.sets]

    def occupancy_by_core(self):
        counts = [0] * self.cores
        for lines in self.lines:
            for _, owner in lines.values():
                counts[owner] += 1
        return counts

    def resident_blocks(self):
        return {block for lines in self.lines for block in lines}


@st.composite
def scenarios(draw):
    """A geometry, a core count and a sequence of typed batches.

    A ``None`` step resets the cache.
    """
    sets = 1 << draw(st.integers(min_value=0, max_value=4))
    ways = draw(st.integers(min_value=1, max_value=5))
    cores = draw(st.integers(min_value=1, max_value=3))
    tags = st.integers(min_value=0, max_value=3 * ways)
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(
            ["distinct", "hot_set", "repeat", "empty", "mixed", "reset"]
        ))
        if kind == "reset":
            batches.append(None)
            continue
        if kind == "distinct":
            chosen = draw(st.lists(st.integers(0, sets - 1), unique=True, max_size=sets))
            blocks = [draw(tags) * sets + s for s in chosen]
        elif kind == "hot_set":
            s = draw(st.integers(0, sets - 1))
            count = draw(st.integers(min_value=ways + 1, max_value=3 * ways + 2))
            blocks = [draw(tags) * sets + s for _ in range(count)]
        elif kind == "repeat":
            block = draw(st.integers(0, 4 * sets * ways))
            others = draw(st.lists(st.integers(0, 4 * sets * ways), max_size=20))
            at = draw(st.lists(st.integers(0, len(others)), min_size=2, max_size=4))
            blocks = list(others)
            for pos in sorted(at, reverse=True):
                blocks.insert(pos, block)
        elif kind == "empty":
            blocks = []
        else:
            blocks = draw(st.lists(st.integers(0, 4 * sets * ways), max_size=60))
        batches.append((draw(st.integers(0, cores - 1)), blocks))
    return sets, ways, cores, batches


class TestBatchesAgainstOracle:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    # 1-set and 1-way geometries, every batch kind, always run.
    @example((1, 3, 2, [(0, [0, 1, 2, 3, 1, 0]), (1, []), (1, [5, 5, 0, 6, 7, 5])]))
    @example((8, 1, 2, [(0, list(range(8))), (1, [8, 0, 16, 8, 24]), (0, [3, 3, 3])]))
    @example((1, 1, 1, [(0, [4, 4, 2, 4]), (0, [])]))
    # After a reset the empty ways fill in order: slots 0, 1, then 0,
    # whichever way was least recent before it.
    @example((1, 2, 1, [(0, [0, 1]), None, (0, [5, 6, 7])]))
    @example((1, 2, 1, [(0, [0, 1, 0]), None, (0, [5, 6, 7])]))
    def test_every_batch_matches(self, scenario):
        for engine in available_engines():
            with on_engine(engine):
                self.check_scenario(scenario)

    def check_scenario(self, scenario):
        sets, ways, cores, batches = scenario
        cache = SetAssociativeCache(tiny_cache(sets=sets, ways=ways), num_cores=cores)
        oracle = OracleLRU(sets, ways, cores)
        seen = set()
        for step in batches:
            if step is None:
                cache.reset()
                oracle = OracleLRU(sets, ways, cores)
            else:
                core, blocks = step
                got = cache.access_batch(core, np.asarray(blocks, dtype=np.int64))
                want = oracle.access_batch(core, blocks)
                assert got.hits == want["hits"]
                assert got.misses == want["misses"]
                for name in ("fills", "fill_slots", "evictions", "evict_slots"):
                    field = getattr(got, name)
                    assert field.dtype == np.int64, name
                    assert field.tolist() == want[name], name
                seen.update(blocks)
            for block in seen | {max(seen, default=0) + 1}:
                assert cache.contains(block) == oracle.contains(block)
            assert cache.occupancy_by_core().tolist() == oracle.occupancy_by_core()
            resident = cache.resident_blocks().tolist()
            assert len(resident) == len(set(resident))
            assert set(resident) == oracle.resident_blocks()
            assert cache.footprint_lines() == len(oracle.resident_blocks())
