"""Metrics registry semantics: instruments, determinism, the event sink."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.jobs.events import EventLog
from repro.telemetry.metrics import (
    DURATION_BUCKETS,
    EventCounterSink,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        """Counters only go up."""
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc()
        c.inc(2.5)
        assert registry.snapshot()["hits"] == {"type": "counter", "value": 3.5}
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        """Gauges record the latest value."""
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(10)
        g.set(4)
        assert registry.snapshot()["depth"] == {"type": "gauge", "value": 4.0}

    def test_histogram_cumulative_buckets(self):
        """Observations land in Prometheus-style cumulative buckets."""
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(105.0)
        assert snap["buckets"] == [["1", 1], ["2", 2], ["4", 3], ["+Inf", 4]]

    def test_histogram_rejects_bad_bounds_and_nan(self):
        """Unordered/empty bounds and NaN observations are errors."""
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))
        h = Histogram("h", bounds=(1.0,))
        with pytest.raises(ConfigurationError):
            h.observe(float("nan"))

    @given(
        bounds=st.lists(
            st.floats(-1e6, 1e6), min_size=1, max_size=12, unique=True
        ).map(sorted),
        values=st.lists(
            st.floats(-1e12, 1e12) | st.sampled_from([0.0, 1.0, 2.0]),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_histogram_buckets_match_a_linear_walk(self, bounds, values):
        """A value lands in the first bucket whose bound is at least the
        value, or in +Inf above the last bound."""
        h = Histogram("h", bounds=bounds)
        want = [0] * (len(bounds) + 1)
        for v in values + [bounds[0], bounds[-1], float("inf")]:
            h.observe(v)
            want[next((i for i, b in enumerate(bounds) if v <= b), len(bounds))] += 1
        assert h.bucket_counts == want


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        """Re-requesting a name returns the registered instrument."""
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert len(registry) == 1
        assert "c" in registry

    def test_type_mismatch_is_an_error(self):
        """One name cannot be a counter and a gauge."""
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_histogram_bounds_mismatch_is_an_error(self):
        """Silent re-bucketing would break snapshot determinism."""
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_is_sorted_and_detached(self):
        """Snapshots iterate in name order and don't track later updates."""
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.counter("aardvark").inc()
        snap = registry.snapshot()
        assert list(snap) == ["aardvark", "zebra"]
        registry.counter("zebra").inc()
        assert snap["zebra"]["value"] == 1


class TestEventCounterSink:
    def test_mirrors_event_stream_into_registry(self):
        """Each event kind gets a counter; durations feed histograms."""
        registry = MetricsRegistry()
        log = EventLog()
        log.add_sink(EventCounterSink(registry))
        log.emit("batch_start")
        log.emit("submitted", key="k")
        log.emit("completed", key="k", wall_time=0.25)
        log.emit("batch_end", wall_time=0.5)
        snap = registry.snapshot()
        assert snap["jobs_events_submitted_total"]["value"] == 1
        assert snap["jobs_events_completed_total"]["value"] == 1
        assert snap["jobs_job_seconds"]["count"] == 1
        assert snap["jobs_batch_seconds"]["count"] == 1
        # Rolling counters stay authoritative alongside the mirror.
        assert log.counters.executed == 1

    def test_duration_buckets_are_the_shared_default(self):
        """The sink's histograms use the fixed DURATION_BUCKETS bounds."""
        registry = MetricsRegistry()
        sink = EventCounterSink(registry)
        assert sink._job_seconds.bounds == tuple(DURATION_BUCKETS)
