"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Metrics are the aggregate, low-overhead side of the telemetry subsystem
(spans are the per-region side). All instruments are registered by name
in a :class:`MetricsRegistry`; a registry :meth:`~MetricsRegistry.snapshot`
is a plain dict sorted by metric name, and — because histogram bucket
boundaries are fixed at registration — two runs that observe the same
values produce byte-identical snapshots. Deterministic simulated
quantities (access counts, miss counts, CBF occupancies) therefore pin
exactly in tests, while wall-clock quantities (seconds histograms) stay
comparable across runs without breaking anything.

:class:`EventCounterSink` adapts the orchestrator's
:class:`~repro.jobs.events.EventLog` stream into this registry, absorbing
the rolling :class:`~repro.jobs.events.EventCounters` tallies (which
remain for backwards compatibility) into first-class metrics.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DURATION_BUCKETS",
    "BACKOFF_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventCounterSink",
]

#: Default latency bucket boundaries (seconds) for duration histograms.
DURATION_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)

#: Bucket boundaries (seconds) for retry/backoff sleep histograms — the
#: interesting range runs from sub-second jitter up to the RetryPolicy
#: cap (30 s by default), with one bucket past it for raised caps.
BACKOFF_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing tally (int or float increments)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary histogram (Prometheus-style cumulative buckets).

    Bucket boundaries are frozen at construction so snapshots of two runs
    observing the same values are identical — the determinism contract
    the pinned telemetry tests rely on.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float], help: str = ""):
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs bucket bounds")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation.

        It lands in the first bucket whose bound is at least *value*, or
        in the ``+Inf`` bucket above the last bound.
        """
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError(f"histogram {self.name} observed NaN")
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``(le, cumulative count)`` pairs ending with ``+Inf``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((f"{bound:g}", running))
        out.append(("+Inf", self.count))
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "buckets": [[le, n] for le, n in self.cumulative_buckets()],
        }


class MetricsRegistry:
    """Name-keyed home of every counter, gauge and histogram.

    Instruments are get-or-create: the first call with a name registers
    it, later calls return the same object (a type or bucket-boundary
    mismatch is a configuration error — silent re-bucketing would break
    snapshot determinism).
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> Histogram:
        """Get or create the named :class:`Histogram` (bounds must match)."""
        metric = self._get_or_create(
            name, lambda: Histogram(name, bounds, help), Histogram
        )
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return metric

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic plain-dict snapshot, sorted by metric name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)


class EventCounterSink:
    """EventLog sink mirroring orchestration events into a registry.

    Attach via :meth:`repro.jobs.events.EventLog.add_sink` (the
    orchestrator does this automatically when telemetry is active). Each
    event kind increments a ``jobs_events_<kind>_total`` counter; job and
    batch durations feed the ``jobs_job_seconds`` / ``jobs_batch_seconds``
    histograms. Only duck-typed event attributes (``kind``,
    ``wall_time``) are read, so this module never imports
    :mod:`repro.jobs` (which imports telemetry — the other direction).
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._job_seconds = registry.histogram(
            "jobs_job_seconds", DURATION_BUCKETS,
            help="per-job wall time as observed by the orchestrator",
        )
        self._batch_seconds = registry.histogram(
            "jobs_batch_seconds", DURATION_BUCKETS,
            help="orchestration batch wall time",
        )

    def __call__(self, event) -> None:
        """Consume one :class:`~repro.jobs.events.JobEvent`."""
        self.registry.counter(
            f"jobs_events_{event.kind}_total",
            help=f"orchestration events of kind {event.kind!r}",
        ).inc()
        if event.kind == "completed":
            self._job_seconds.observe(event.wall_time)
        elif event.kind == "batch_end":
            self._batch_seconds.observe(event.wall_time)
