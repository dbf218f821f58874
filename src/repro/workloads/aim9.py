"""The aim9-like phased microbenchmark used by Figures 2 and 5.

The paper's motivating time-series plots use the AIM9 disk benchmark: a
workload that streams fresh (disk-buffer) data continuously while its live
working set steps up and down over time. Against it the paper compares
(a) event-based performance counters — which fail to track the footprint —
and (b) the CBF occupancy weight — which tracks it closely.

Each phase here is a :class:`~repro.workloads.patterns.SlidingWindowGenerator`
with an independent *(live-window, churn)* pair: the true footprint is the
window size, while the miss rate is governed by the churn rate — by design
the two series are uncorrelated across phases, which is precisely the
Figure 2 phenomenon (miss counters do not reveal the working set).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.validation import require_positive
from repro.workloads.base import BLOCK_BYTES
from repro.workloads.patterns import PhasedGenerator, SlidingWindowGenerator

__all__ = ["aim9_phases", "make_aim9_generator"]

#: (live_window_kb, churn, accesses) phases. Window sizes and churn rates
#: are deliberately decorrelated — small windows with heavy churn, large
#: windows with light churn, and vice versa — so the miss rate carries no
#: information about the footprint. Churn stays >= 0.3 so the measurement
#: cache turns over within a phase (stale lines leave, letting the CBF's
#: counter-zeroing track footprint *drops* as well as growth).
_DEFAULT_PHASES: Tuple[Tuple[int, float, int], ...] = (
    (32, 0.55, 50_000),
    (768, 0.50, 50_000),
    (128, 0.65, 50_000),
    (512, 0.30, 50_000),
    (64, 0.40, 50_000),
    (384, 0.60, 50_000),
    (96, 0.35, 50_000),
)

#: Block-address spacing between phases (each streams its own fresh data).
_PHASE_STRIDE_BLOCKS = 1 << 18


def aim9_phases() -> List[Tuple[int, float, int]]:
    """The default (live_window_kb, churn, accesses) schedule."""
    return list(_DEFAULT_PHASES)


def make_aim9_generator(
    base_block: int = 0,
    seed: int = 0,
    phases: List[Tuple[int, float, int]] = None,
) -> PhasedGenerator:
    """Build the phased sliding-window generator.

    Each phase streams its own disjoint address slice (fresh disk data),
    so cache contents from earlier phases go stale and get evicted by the
    ongoing churn — letting the CBF's counter-zeroing track the live
    footprint downward as well as upward.
    """
    schedule = phases if phases is not None else aim9_phases()
    subgens = []
    for i, (window_kb, churn, accesses) in enumerate(schedule):
        require_positive(window_kb, "window_kb")
        require_positive(accesses, "accesses")
        blocks = max(1, window_kb * 1024 // BLOCK_BYTES)
        gen = SlidingWindowGenerator(
            window_blocks=blocks,
            churn=churn,
            base_block=i * _PHASE_STRIDE_BLOCKS,
            seed=seed * 97 + i,
        )
        subgens.append((gen, accesses))
    return PhasedGenerator(subgens, base_block=base_block, seed=seed)

