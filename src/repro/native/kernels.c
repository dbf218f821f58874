/* Compiled kernels of the exact engine.
 *
 * lru_batch and cbf_events run over numpy arrays their Python objects
 * own (see repro/native/__init__.py) and reproduce the numpy reference
 * paths reference by reference; run_segment runs the simulator's loop
 * (perf/simulator.py) from one scheduler event to the next over the same
 * state. Every simulated result is byte-identical. The module is
 * compiled with -ffp-contract=off, so each floating-point expression
 * rounds as Python's does.
 */

#include <stdint.h>
#include <time.h>

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
 * all in access order. counts receives (fills, evictions). Every block
 * must be non-negative.
 */
static void lru_walk(int64_t *tags, int64_t *stamps, int64_t *owner,
                     int64_t set_mask, int64_t ways, int64_t clock,
                     int64_t core, const int64_t *blocks, int64_t n,
                     int64_t *out, int64_t *counts)
{
    int64_t i, w, fills = 0, evictions = 0;
    int64_t *fill_blocks = out, *fill_slots = out + n;
    int64_t *evict_blocks = out + 2 * n, *evict_slots = out + 3 * n;

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
}

/* lru_walk, but a batch holding a negative block is rejected before any
 * state moves: the return value is then -1 and counts[0] the batch's
 * minimum. */
int64_t lru_batch(int64_t *tags, int64_t *stamps, int64_t *owner,
                  int64_t set_mask, int64_t ways, int64_t clock,
                  int64_t core, const int64_t *blocks, int64_t n,
                  int64_t *out, int64_t *counts)
{
    int64_t i, lowest = 0;

    for (i = 0; i < n; i++)
        if (blocks[i] < lowest)
            lowest = blocks[i];
    if (lowest < 0) {
        counts[0] = lowest;
        return -1;
    }
    lru_walk(tags, stamps, owner, set_mask, ways, clock, core, blocks, n,
             out, counts);
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

/* One core of run_segment: the task at the head of its run queue, and
 * the core's quantum. */
typedef struct {
    int64_t runnable;            /* the run queue is not empty */
    const int64_t *ahead;        /* the generator's read-ahead (relative) */
    int64_t ahead_len;
    int64_t ahead_pos;           /* in, out: the first unserved reference */
    int64_t base_block;
    int64_t remaining;           /* in, out: references left in the run */
    double accesses_per_kinstr, mlp;
    double user_cycles;          /* in, out */
    double quantum_used;         /* in, out */
} segment_core;

/* Everything else run_segment reads or writes. */
typedef struct {
    /* The shared L2: lru_batch's state, the clock and the CacheStats
     * hit and miss arrays (updated in place). */
    int64_t *tags, *stamps, *owner, set_mask, ways;
    int64_t clock;               /* in, out */
    int64_t *hits, *misses;
    /* The signature unit's cbf_events state; counters is NULL without
     * a unit. */
    int64_t *counters;
    uint8_t *core_bits;
    int64_t entries, counter_max, index_bits, fold_bits;
    /* The TimingModel, the miss-intensity EMA and the timeslice. */
    double cpi_base, l1_hit_cycles, l2_hit_cycles, mem_cycles, queue_coeff,
        per_access_cycles, intensity_ema, timeslice_cycles;
    int64_t batch;               /* batch_accesses */
    /* Where the run hands back: infinities stand for "never", and
     * min_wall_cycles is -infinity when unset. */
    double next_invocation, max_wall_cycles, min_wall_cycles;
    int64_t all_done;            /* every task has completed once */
    /* Scratch: one batch of blocks and its (4, batch) event buffer. */
    int64_t *blocks, *events;
    /* Out: batches run since the caller zeroed the count, and this
     * call's L2 and CBF totals. */
    int64_t batches, fills, evictions, saturated, underflowed;
    /* Telemetry, NULL when off: the L2 misses of each batch, appended at
     * misses_len (in, out) up to misses_capacity, and the nanoseconds
     * spent in trace_gen, l2_access, signature and timing (added to). */
    int64_t *batch_misses, misses_len, misses_capacity;
    int64_t *phase_ns;
} segment_state;

/* run_segment's return values besides a core whose quantum expired. */
#define SEGMENT_BEFORE (-1)      /* the next batch needs Python */
#define SEGMENT_END (-2)         /* the run ends after this batch */

static int64_t now_ns(void)
{
    struct timespec ts;

    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* MulticoreSimulator.run's loop (perf/simulator.py) for a shared L2
 * without L1s, batch after batch, until the next step needs Python.
 *
 * It steps the first least-advanced runnable core, serves the batch
 * from its task's read-ahead, runs lru_walk and (with a unit)
 * cbf_events, and applies TimingModel.batch_cycles, the intensity EMA,
 * the task's accounting and the quantum charge, each expression in the
 * Python source's operand order. It returns SEGMENT_BEFORE before a
 * batch that Python must run: the monitor is due, the wall limit is
 * reached, the batch would complete its task, the read-ahead cannot
 * serve it, it holds a negative block, it would raise in Python's
 * timing (a zero accesses_per_kinstr divides by zero, an mlp below 1,
 * or no positive instructions * cpi_base: the other terms are never
 * negative, so only then can the batch cost no cycles), or the miss
 * buffer is full. After a batch it returns the core when its quantum
 * expired, and SEGMENT_END when every task has completed once and the
 * latest core clock reached min_wall_cycles.
 */
int64_t run_segment(segment_state *s, segment_core *cores, int64_t num_cores,
                    double *core_time, double *intensity)
{
    int64_t n = s->batch, *ns = s->phase_ns;
    int64_t counts[2], clamps[2];

    s->fills = s->evictions = s->saturated = s->underflowed = 0;
    for (;;) {
        int64_t core = -1, c, i, fills, lowest = 0, t0 = 0, t1;
        segment_core *task;
        const int64_t *rel;
        double wall, instructions, other, miss, cycles, latest;

        for (c = 0; c < num_cores; c++)
            if (cores[c].runnable
                && (core < 0 || core_time[c] < core_time[core]))
                core = c;
        if (core < 0)
            return SEGMENT_BEFORE;
        wall = core_time[core];
        if (wall >= s->max_wall_cycles || wall >= s->next_invocation)
            return SEGMENT_BEFORE;
        task = &cores[core];
        if (task->remaining <= n || task->ahead_len - task->ahead_pos < n)
            return SEGMENT_BEFORE;
        instructions = n * 1000.0 / task->accesses_per_kinstr;
        if (task->accesses_per_kinstr == 0
            || !(instructions * s->cpi_base > 0) || task->mlp < 1.0)
            return SEGMENT_BEFORE;
        if (s->batch_misses && s->misses_len == s->misses_capacity)
            return SEGMENT_BEFORE;

        /* TraceGenerator.next_batch */
        if (ns)
            t0 = now_ns();
        rel = task->ahead + task->ahead_pos;
        for (i = 0; i < n; i++) {
            s->blocks[i] = (int64_t)((uint64_t)rel[i]
                                     + (uint64_t)task->base_block);
            if (s->blocks[i] < lowest)
                lowest = s->blocks[i];
        }
        if (lowest < 0)
            return SEGMENT_BEFORE;
        task->ahead_pos += n;
        if (ns) {
            t1 = now_ns();
            ns[0] += t1 - t0;
            t0 = t1;
        }

        /* SetAssociativeCache.access_batch */
        lru_walk(s->tags, s->stamps, s->owner, s->set_mask, s->ways,
                 s->clock, core, s->blocks, n, s->events, counts);
        s->clock += n;
        fills = counts[0];
        s->hits[core] += n - fills;
        s->misses[core] += fills;
        s->fills += fills;
        s->evictions += counts[1];
        if (ns) {
            t1 = now_ns();
            ns[1] += t1 - t0;
            t0 = t1;
        }

        /* SignatureUnit.record_events */
        if (s->counters) {
            cbf_events(s->counters, s->core_bits, s->entries, num_cores,
                       core, s->counter_max, s->index_bits, s->fold_bits,
                       s->events, fills, s->events + 2 * n, counts[1],
                       clamps);
            s->saturated += clamps[0];
            s->underflowed += clamps[1];
        }
        if (ns) {
            t1 = now_ns();
            ns[2] += t1 - t0;
            t0 = t1;
        }

        /* TimingModel.batch_cycles with no L1 hits, then the EMA, the
         * task's accounting and OSScheduler.charge. */
        other = 0.0;
        for (c = 0; c < num_cores; c++)
            if (cores[c].runnable && c != core)
                other += intensity[c];
        miss = s->mem_cycles / task->mlp
            + s->queue_coeff * (0.0 > other ? 0.0 : other) * s->mem_cycles;
        cycles = instructions * s->cpi_base
            + 0 * s->l1_hit_cycles
            + (n - fills) * s->l2_hit_cycles
            + fills * miss
            + n * s->per_access_cycles;
        intensity[core] = (1 - s->intensity_ema) * intensity[core]
            + s->intensity_ema * (fills / cycles);
        core_time[core] += cycles;
        task->remaining -= n;
        task->user_cycles += cycles;
        task->quantum_used += cycles;
        if (s->batch_misses)
            s->batch_misses[s->misses_len++] = fills;
        s->batches++;
        if (ns)
            ns[3] += now_ns() - t0;

        if (task->quantum_used >= s->timeslice_cycles)
            return core;
        if (s->all_done) {
            latest = core_time[0];
            for (c = 1; c < num_cores; c++)
                if (core_time[c] > latest)
                    latest = core_time[c];
            if (latest >= s->min_wall_cycles)
                return SEGMENT_END;
        }
    }
}
