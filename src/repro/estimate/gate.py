"""Confidence gating for the estimate fast paths.

The analytical and sampled backends trade exactness for speed under an
*envelope* of assumptions: footprints that fit the modelled cache
geometry, address streams whose hash images spread across the signature
filter, and phase behaviour stable enough for representative intervals.
An adversarial mix (see :mod:`repro.adversary`) violates exactly those
assumptions — a signature-aliasing stream keeps its whole footprint on a
handful of filter indices, and a footprint bomb saturates the filter so
occupancy stops discriminating.

:class:`EstimateGate` is the degradation valve: attached to
:func:`repro.estimate.dispatch.estimate_mix`, it inspects the mix
*before* a fast backend runs and reroutes low-confidence or
out-of-envelope mixes to the exact engine. Every reroute increments the
``estimate_fallback_total`` metric and appends a structured degradation
event to :attr:`EstimateGate.events` — slow-but-right, never
fast-but-wrong. Without a gate (the default) dispatch behaviour is
byte-identical to the ungated seam.

Inspection is cheap and non-destructive: generators that expose their
footprint (``region_blocks``) are read directly; the rest are probed
with one seeded batch and then :meth:`~repro.workloads.base.TraceGenerator.reset`,
which restores their initial state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.hashes import XorFoldHash
from repro.core.signature import signature_confidence
from repro.errors import ConfigurationError
from repro.perf.machine import MachineConfig
from repro.sched.process import SimTask

__all__ = ["EstimateGate"]


def _next_power_of_two(n: int) -> int:
    return 1 << (n - 1).bit_length()


@dataclass
class EstimateGate:
    """Pre-flight envelope check for the fast estimate backends.

    Parameters
    ----------
    min_confidence:
        Minimum signature-confidence score (see
        :func:`repro.core.signature.signature_confidence`) the mix's
        aggregate footprint must retain at the machine's filter capacity.
        Below it the filter would be too alias-ridden for signature-based
        estimation and the mix reroutes to the exact engine.
    max_pressure:
        Maximum aggregate footprint as a fraction of the shared-cache
        line count; above it the mix is a footprint bomb outside the
        analytical model's envelope.
    min_alias_ratio:
        Minimum fraction of *distinct filter indices per distinct block*
        a task's probed address stream must achieve. A uniformly-hashed
        stream sits near 1.0; a constructed signature-aliasing stream
        collapses towards ``1/blocks``. Below the floor the task is
        treated as adversarially aliased.
    capacity:
        Filter capacity (entries) the envelope is judged against.
        ``None`` (the default) uses the machine's shared-cache line
        count — the default signature sizing. Pass the actual
        ``SignatureConfig.num_entries`` when the deployment subsamples.
    num_hashes:
        Hash functions assumed for the confidence estimate.
    probe_accesses:
        Probe batch size for generators that do not expose
        ``region_blocks``.

    Attributes
    ----------
    fallbacks:
        Mixes rerouted to the exact engine so far.
    events:
        One JSON-native degradation event per reroute.
    """

    min_confidence: float = 0.05
    max_pressure: float = 4.0
    min_alias_ratio: float = 0.05
    capacity: Optional[int] = None
    num_hashes: int = 1
    probe_accesses: int = 2048
    fallbacks: int = 0
    events: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigurationError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.max_pressure <= 0:
            raise ConfigurationError(
                f"max_pressure must be > 0, got {self.max_pressure}"
            )
        if not 0.0 <= self.min_alias_ratio <= 1.0:
            raise ConfigurationError(
                f"min_alias_ratio must be in [0, 1], got {self.min_alias_ratio}"
            )
        if self.num_hashes < 1:
            raise ConfigurationError(
                f"num_hashes must be >= 1, got {self.num_hashes}"
            )
        if self.probe_accesses < 1:
            raise ConfigurationError(
                f"probe_accesses must be >= 1, got {self.probe_accesses}"
            )
        if self.capacity is not None and self.capacity < 2:
            raise ConfigurationError(
                f"capacity must be >= 2, got {self.capacity}"
            )

    # -- inspection ----------------------------------------------------

    def _probe_blocks(self, task: SimTask):
        """Probe one task: ``(distinct blocks array, footprint estimate)``.

        The probe is one ``next_batch`` call, so for a generator that is not
        split-invariant it sees a different stream than the exact engine's
        batches (see :func:`repro.estimate.reuse.profile_task`).
        """
        generator = task.generator
        region = getattr(generator, "region_blocks", None)
        batch = generator.next_batch(self.probe_accesses)
        generator.reset()
        blocks = np.unique(np.asarray(batch, dtype=np.int64))
        if region is not None and int(region) > len(blocks):
            # The declared footprint is authoritative when larger than
            # what one probe batch happened to touch.
            return blocks, int(region)
        return blocks, len(blocks)

    def evaluate(
        self, machine: MachineConfig, tasks: Sequence[SimTask]
    ) -> Optional[dict]:
        """Check one mix; return a degradation event dict or ``None``.

        ``None`` means the mix is inside the fast-path envelope. A dict
        names every violated check per task, JSON-native so callers can
        log or archive it as-is.
        """
        capacity = (
            self.capacity
            if self.capacity is not None
            else machine.l2.geometry.num_lines
        )
        filter_entries = _next_power_of_two(capacity)
        hasher = XorFoldHash(filter_entries)
        total_footprint = 0
        violations: Dict[str, dict] = {}
        for task in tasks:
            blocks, footprint = self._probe_blocks(task)
            total_footprint += footprint
            if len(blocks) < 2:
                continue
            indices = np.unique(hasher.hash_many(blocks))
            alias_ratio = len(indices) / len(blocks)
            if alias_ratio < self.min_alias_ratio:
                violations[task.name] = {
                    "check": "alias_ratio",
                    "alias_ratio": alias_ratio,
                    "floor": self.min_alias_ratio,
                    "distinct_blocks": int(len(blocks)),
                    "distinct_indices": int(len(indices)),
                }
        pressure = total_footprint / capacity
        confidence = signature_confidence(
            min(total_footprint, filter_entries), filter_entries, self.num_hashes
        )
        reasons = []
        if violations:
            reasons.append("signature-aliasing stream detected")
        if pressure > self.max_pressure:
            reasons.append(
                f"footprint pressure {pressure:.2f} exceeds envelope "
                f"{self.max_pressure:g}"
            )
        if confidence.score < self.min_confidence:
            reasons.append(
                f"signature confidence {confidence.score:.3f} below floor "
                f"{self.min_confidence:g}"
            )
        if not reasons:
            return None
        return {
            "action": "fallback-exact-backend",
            "reasons": reasons,
            "pressure": pressure,
            "confidence": confidence.score,
            "tasks": dict(sorted(violations.items())),
        }

    def record(self, event: dict) -> None:
        """Book one reroute (dispatch calls this when the gate trips)."""
        self.fallbacks += 1
        self.events.append(event)
