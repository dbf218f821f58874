"""Declarative knobs of the fast-path estimator backends.

An :class:`EstimatorOptions` is pure JSON-native data, carried inside a
:class:`~repro.jobs.spec.RunSpec` (its ``estimator`` field) so that the
backend configuration is part of the spec's content address: two runs
that estimate with different window sizes or sampling denominators must
never share a cache entry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["EstimatorOptions"]


@dataclass(frozen=True)
class EstimatorOptions:
    """Configuration shared by the analytical and sampled backends.

    Parameters
    ----------
    profile_refs:
        Optional cap on the number of references profiled per task
        (``None`` profiles the full trace). A profile cut short by the
        cap is marked by its ``truncated`` flag
        (:attr:`~repro.estimate.reuse.ReuseProfile.truncated`).
    window_refs:
        Phase-detection window size in references (sampled backend).
    denominator:
        Sampling denominator: the sampled backend simulates roughly
        ``1/denominator`` of each phase's windows (1 keeps everything,
        which degenerates to exact simulation of the stitched trace).
        Every detected phase always keeps at least one window, so on
        phase-rich traces the effective coverage floors out well above
        ``1/denominator`` — cross-validation shows no accuracy loss
        between 16 and 32 (see ``benchmarks/bench_estimate_accuracy.py``).
    phase_threshold:
        Jaccard-distance threshold between consecutive windowed
        signatures above which a phase boundary is declared.
    signature_bits:
        Width of the windowed presence signature used for phase
        detection (a per-window mini-CBF).
    fixed_point_iterations:
        Iterations of the rate/miss-rate fixed point in the analytical
        co-run composition.
    reuse_bins:
        Maximum number of log-spaced reuse-time bins the analytical
        model evaluates per task. Profiles with more distinct reuse
        times than this are compressed to count-weighted bin
        representatives before the footprint composition — the
        footprint curve is smooth, so the relative volume error per bin
        is bounded by the bin's log width (``max_rt**(1/reuse_bins) -
        1``, well under 1% at the default). This is what makes a
        mapping prediction O(bins) instead of O(reuses) and lets one
        profiling pass amortise over hundreds of predicted mappings.
    """

    profile_refs: Optional[int] = None
    window_refs: int = 2048
    denominator: int = 32
    phase_threshold: float = 0.5
    signature_bits: int = 512
    fixed_point_iterations: int = 5
    reuse_bins: int = 512

    def __post_init__(self) -> None:
        if self.profile_refs is not None:
            require_positive(self.profile_refs, "profile_refs")
        require_positive(self.window_refs, "window_refs")
        require_positive(self.denominator, "denominator")
        require_positive(self.signature_bits, "signature_bits")
        require_positive(self.fixed_point_iterations, "fixed_point_iterations")
        require_positive(self.reuse_bins, "reuse_bins")
        if not 0.0 < self.phase_threshold <= 1.0:
            raise ConfigurationError(
                f"phase_threshold must be in (0, 1], got {self.phase_threshold}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what the run spec embeds and hashes)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Optional[Mapping[str, Any]]) -> "EstimatorOptions":
        """Rebuild from :meth:`to_dict` output (``None`` means defaults).

        Unknown keys are rejected loudly — a typo'd knob silently falling
        back to its default would poison the content-address guarantee.
        """
        if d is None:
            return cls()
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(
                f"unknown estimator options: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(d))
