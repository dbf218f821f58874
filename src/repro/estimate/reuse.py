"""One-pass reuse-distance / footprint profiling of a task's trace.

The analytical backend never simulates an interleaved trace; everything
it predicts derives from a single vectorised profiling pass per task that
collects:

* the **reuse-time histogram** — for every reference that re-touches a
  block, the number of (own) references since the previous touch;
* the average **footprint curve** ``fp(w)`` — the expected number of
  distinct blocks in a window of ``w`` consecutive references — built
  in closed form from the gap lengths (runs of references *not*
  touching each block) and stored densely, one value per integer
  window;
* cold-miss and working-set totals.

The footprint identity is exact, not fitted (window-count form of the
higher-order theory of locality): summing distinct-block counts over all
length-``w`` windows is the same as counting, per block, the windows that
*miss* it — and a window misses a block exactly when it fits inside one
of the block's access gaps, so

``fp(w) = m - (1 / (n - w + 1)) · Σ_gaps max(gap - w + 1, 0)``

with ``m`` distinct blocks, ``n`` references, and one gap per reuse
interval (length ``reuse_time - 1``) plus head/tail gaps before each
block's first and after its last access. Gap lengths are integers below
``n``, so a histogram of them (``np.bincount``) and its suffix sums give
the sum for every ``w = 1..n`` at once — no sort and no per-reference
Python loop. A footprint lookup is then an array gather.

Restart semantics (paper Section 4.2) are handled by
:meth:`ReuseProfile.footprint_extended`: a completed task restarts into a
fresh block-address slice, so a co-runner observed across ``k`` full
trace lengths contributes ``k`` *disjoint* working sets plus the
footprint of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sched.process import SimTask
from repro.utils.validation import require_positive

__all__ = ["ReuseProfile", "profile_trace", "profile_task"]


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse/footprint summary of one task's reference stream.

    Attributes
    ----------
    name:
        Task display name (benchmark name).
    refs:
        References profiled (``n``).
    distinct_blocks:
        Distinct blocks touched (``m``; the cold-miss count).
    total_refs:
        The task's full trace length — equals ``refs`` unless the
        profiling pass was truncated by ``profile_refs``.
    accesses_per_kinstr, mlp:
        Timing-model parameters copied from the task (memory intensity
        and memory-level parallelism).
    reuse_times:
        Sorted reuse times, one per non-cold reference.
    curve:
        The footprint curve: ``curve[w]`` is ``fp(w)`` for every integer
        window ``w = 1..refs`` (``refs + 1`` entries; index 0 is never
        read).
    """

    name: str
    refs: int
    distinct_blocks: int
    total_refs: int
    accesses_per_kinstr: float
    mlp: float
    reuse_times: np.ndarray = field(repr=False)
    curve: np.ndarray = field(repr=False)
    #: Memoised :meth:`binned_reuses` results, keyed by bin count — the
    #: same profile is re-binned by every per-mapping analytical model.
    _bin_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def truncated(self) -> bool:
        """True when the profile covers a prefix of the full trace."""
        return self.refs < self.total_refs

    @property
    def cold_fraction(self) -> float:
        """Fraction of profiled references that touch a block first."""
        return self.distinct_blocks / self.refs

    def footprint(self, windows: np.ndarray) -> np.ndarray:
        """Expected distinct blocks in windows of the given lengths.

        Exact for ``1 <= w <= refs`` (matches a brute-force average over
        all length-``w`` windows); inputs are clipped into that range.
        """
        # A minimum/maximum pair clips to the same integers as np.clip
        # without its Python-level wrapper, which dominates at the small
        # array sizes the analytical model queries.
        w = np.maximum(np.asarray(windows, dtype=np.int64), 1)
        return self.curve[np.minimum(w, self.refs)]

    def footprint_extended(self, windows: np.ndarray) -> np.ndarray:
        """Footprint of a window that may span restarts of the task.

        A restarted task replays its reference pattern in a *shifted*
        block-address slice (fresh physical pages), so each completed
        trace length contributes its whole working set again:
        ``fp_ext(w) = floor(w / n) · m + fp(w mod n)``.
        """
        w = np.asarray(windows, dtype=np.float64)
        n = float(self.refs)
        full = np.floor(w / n)
        rem = np.maximum((w - full * n).astype(np.int64), 1)
        return full * self.distinct_blocks + self.footprint(rem)

    def hits_within(self, reuse_limit: float) -> int:
        """Number of reuses with reuse time at most *reuse_limit*."""
        return int(np.searchsorted(self.reuse_times, reuse_limit, side="right"))

    def binned_reuses(
        self, max_bins: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reuse times compressed to ``(values, counts)`` bin pairs.

        Short profiles pass through exactly (weight 1 per reuse); longer
        ones collapse into at most *max_bins* log-spaced bins, each
        represented by its members' mean reuse time and total count.
        The footprint curve is smooth, so downstream volume estimates
        evaluated at bin representatives carry a relative error bounded
        by the bin's log width (``max_rt ** (1/max_bins) - 1``). Results
        are memoised per bin count; callers must not mutate them.
        """
        max_bins = int(max_bins)
        require_positive(max_bins, "max_bins")
        cached = self._bin_cache.get(max_bins)
        if cached is not None:
            return cached
        rts = self.reuse_times.astype(np.float64)
        if len(rts) <= max_bins:
            result = rts, np.ones(len(rts))
        else:
            lo, hi = float(rts[0]), float(rts[-1])
            if hi <= lo:
                result = np.array([lo]), np.array([float(len(rts))])
            else:
                edges = np.geomspace(lo, hi, max_bins + 1)
                idx = np.clip(
                    np.searchsorted(edges, rts, side="right") - 1,
                    0,
                    max_bins - 1,
                )
                counts = np.bincount(idx, minlength=max_bins)
                sums = np.bincount(idx, weights=rts, minlength=max_bins)
                filled = counts > 0
                result = (
                    sums[filled] / counts[filled],
                    counts[filled].astype(np.float64),
                )
        self._bin_cache[max_bins] = result
        return result


def profile_trace(
    name: str,
    blocks: np.ndarray,
    *,
    total_refs: Optional[int] = None,
    accesses_per_kinstr: float = 1.0,
    mlp: float = 1.0,
) -> ReuseProfile:
    """Profile one reference stream into a :class:`ReuseProfile`.

    The pass is fully vectorised: previous-occurrence indices come from
    one stable argsort of the block ids, reuse times and gap lengths are
    then plain array arithmetic, and the footprint curve follows from
    suffix sums over the gap-length histogram.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = len(blocks)
    require_positive(n, "trace length")
    order = np.argsort(blocks, kind="stable")
    sorted_ids = blocks[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    m = n - int(np.count_nonzero(same))
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    has_prev = prev >= 0
    reuse_times = (np.arange(n, dtype=np.int64) - prev)[has_prev]
    firsts = order[np.concatenate(([True], ~same))]
    lasts = order[np.concatenate((~same, [True]))]
    gaps = np.concatenate([reuse_times - 1, firsts, n - 1 - lasts])
    # For every window w: tail(w) = Σ_{gap >= w} (gap - w + 1), from the
    # count and the sum of the gaps at least w long (zero-length gaps
    # add nothing to either for w >= 1).
    counts = np.bincount(gaps, minlength=n + 1)
    w = np.arange(n + 1, dtype=np.int64)
    count_ge = np.cumsum(counts[::-1])[::-1]
    sum_ge = np.cumsum((counts * w)[::-1])[::-1]
    tail = sum_ge - (w - 1) * count_ge
    return ReuseProfile(
        name=name,
        refs=n,
        distinct_blocks=m,
        total_refs=int(total_refs if total_refs is not None else n),
        accesses_per_kinstr=float(accesses_per_kinstr),
        mlp=float(mlp),
        reuse_times=np.sort(reuse_times),
        curve=m - tail / np.maximum(n - w + 1, 1),
    )


def profile_task(
    task: SimTask, profile_refs: Optional[int] = None
) -> ReuseProfile:
    """Profile a :class:`~repro.sched.process.SimTask`'s trace.

    Generates (and then rewinds) the task's reference stream — the task
    is left exactly as constructed, so profiling never perturbs a later
    exact simulation of the same object. *profile_refs* caps the pass
    for huge traces; the resulting profile is marked truncated.

    The trace is drawn in one ``next_batch`` call. That is the stream the
    exact engine simulates batch by batch only when the generator is
    split-invariant (``split_granule > 0``); ``AliasingGenerator`` with
    ``reuse='hot'`` is not, so its profile prices a different stream.
    """
    n = task.total_accesses
    take = n if profile_refs is None else min(n, int(profile_refs))
    if take <= 0:
        raise WorkloadError(f"task {task.name!r} has an empty trace")
    generator = task.generator
    generator.reset()
    blocks = np.array(generator.next_batch(take), dtype=np.int64, copy=True)
    generator.reset()
    return profile_trace(
        task.name,
        blocks,
        total_refs=n,
        accesses_per_kinstr=task.accesses_per_kinstr,
        mlp=task.mlp,
    )
