/* Compiled kernels of the exact engine's two hottest layers.
 *
 * Both run over numpy arrays their Python objects own (see
 * repro/native/__init__.py) and reproduce the numpy reference paths
 * reference by reference, so every simulated result is byte-identical.
 */

#include <stdint.h>

/* LRU batch of SetAssociativeCache (cache/cache.py).
 *
 * tags, stamps and owner are the set-major (sets, ways) state matrices.
 * Reference i gets stamp clock + 1 + i. A hit takes the first way whose
 * tag matches; a miss replaces the first way of minimum stamp (the
 * lowest empty way, stamp 0, else the least recently used one) and
 * writes the requesting core as the line's owner.
 *
 * out is one (4, n) buffer: row 0 the filled blocks, row 1 their slots
 * (set * ways + way), row 2 the evicted blocks and row 3 their slots,
 * all in access order. counts receives (fills, evictions).
 *
 * A batch holding a negative block is rejected before any state moves:
 * the return value is then -1 and counts[0] the batch's minimum.
 */
int64_t lru_batch(int64_t *tags, int64_t *stamps, int64_t *owner,
                  int64_t set_mask, int64_t ways, int64_t clock,
                  int64_t core, const int64_t *blocks, int64_t n,
                  int64_t *out, int64_t *counts)
{
    int64_t i, w, fills = 0, evictions = 0, lowest = 0;
    int64_t *fill_blocks = out, *fill_slots = out + n;
    int64_t *evict_blocks = out + 2 * n, *evict_slots = out + 3 * n;

    for (i = 0; i < n; i++)
        if (blocks[i] < lowest)
            lowest = blocks[i];
    if (lowest < 0) {
        counts[0] = lowest;
        return -1;
    }
    for (i = 0; i < n; i++) {
        int64_t block = blocks[i];
        int64_t row = (block & set_mask) * ways;
        int64_t *row_tags = tags + row, *row_stamps = stamps + row;
        int64_t stamp = clock + 1 + i, victim = 0, slot, old;

        for (w = 0; w < ways; w++)
            if (row_tags[w] == block)
                break;
        if (w < ways) {
            row_stamps[w] = stamp;
            continue;
        }
        for (w = 1; w < ways; w++)
            if (row_stamps[w] < row_stamps[victim])
                victim = w;
        slot = row + victim;
        old = tags[slot];
        fill_blocks[fills] = block;
        fill_slots[fills] = slot;
        if (old >= 0) {
            evict_blocks[evictions] = old;
            evict_slots[evictions] = slot;
            evictions++;
        }
        tags[slot] = block;
        stamps[slot] = stamp;
        owner[slot] = core;
        fills++;
    }
    counts[0] = fills;
    counts[1] = evictions;
    return 0;
}

/* The XorFoldHash index of one block (core/hashes.py, unsalted): the
 * address XOR-ed with itself shifted by every multiple of index_bits
 * below fold_bits, masked to index_bits bits. */
static int64_t xor_fold(int64_t block, int64_t index_bits, int64_t fold_bits)
{
    uint64_t u = (uint64_t)block, acc = u;
    int64_t shift;

    for (shift = index_bits; shift < fold_bits; shift += index_bits)
        acc ^= u >> shift;
    return (int64_t)(acc & (((uint64_t)1 << index_bits) - 1));
}

/* One batch of SignatureUnit.record_events (core/signature.py) for an
 * XOR-fold k = 1 unit without sampling, clamping at the counter range.
 *
 * counters has `entries` counters; core_bits is the (cores, entries)
 * Core Filter matrix, one byte per bit. In order: every fill increments
 * its counter; each overflowed counter is clamped once and the filling
 * core's bit is set; every eviction decrements its counter; each
 * underflowed counter is clamped once; every evicted entry whose counter
 * is 0 is cleared in every Core Filter. clamps receives the batch's
 * total excess over counter_max and total deficit below 0.
 */
void cbf_events(int64_t *counters, uint8_t *core_bits, int64_t entries,
                int64_t cores, int64_t core, int64_t counter_max,
                int64_t index_bits, int64_t fold_bits,
                const int64_t *fills, int64_t num_fills,
                const int64_t *evictions, int64_t num_evictions,
                int64_t *clamps)
{
    int64_t i, c, excess = 0, deficit = 0;
    uint8_t *own_bits = core_bits + core * entries;

    for (i = 0; i < num_fills; i++)
        counters[xor_fold(fills[i], index_bits, fold_bits)]++;
    for (i = 0; i < num_fills; i++) {
        int64_t index = xor_fold(fills[i], index_bits, fold_bits);
        if (counters[index] > counter_max) {
            excess += counters[index] - counter_max;
            counters[index] = counter_max;
        }
        own_bits[index] = 1;
    }
    for (i = 0; i < num_evictions; i++)
        counters[xor_fold(evictions[i], index_bits, fold_bits)]--;
    for (i = 0; i < num_evictions; i++) {
        int64_t index = xor_fold(evictions[i], index_bits, fold_bits);
        if (counters[index] < 0) {
            deficit -= counters[index];
            counters[index] = 0;
        }
    }
    for (i = 0; i < num_evictions; i++) {
        int64_t index = xor_fold(evictions[i], index_bits, fold_bits);
        if (counters[index] == 0)
            for (c = 0; c < cores; c++)
                core_bits[c * entries + index] = 0;
    }
    clamps[0] = excess;
    clamps[1] = deficit;
}
