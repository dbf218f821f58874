"""Tests for the backend dispatch seam (``estimate_mix``)."""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.estimate.dispatch import (
    BACKENDS,
    as_mapping,
    estimate_mix,
    make_exact_simulator,
)
from repro.estimate.options import EstimatorOptions
from repro.perf.machine import core2duo
from repro.perf.runner import build_tasks
from repro.sched.affinity import Mapping
from repro.telemetry import MetricsRegistry, TelemetryContext, Tracer, use


def mix(instructions=60_000):
    return build_tasks(["mcf", "povray"], instructions=instructions, seed=0)


class TestAsMapping:
    def test_passthrough_and_none(self):
        m = Mapping.from_groups([[0], [1]])
        assert as_mapping(m) is m
        assert as_mapping(None) is None

    def test_normalises_groups(self):
        assert as_mapping([[1], [0]]) == Mapping.from_groups([[1], [0]])


class TestEstimateMix:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            estimate_mix(core2duo(), mix(), backend="magic")

    def test_exact_backend_has_no_report(self):
        result, report = estimate_mix(core2duo(), mix(), backend="exact")
        assert report is None
        assert result.wall_cycles > 0

    def test_exact_matches_direct_simulator(self):
        machine = core2duo()
        direct = make_exact_simulator(machine, mix()).run()
        via_seam, _ = estimate_mix(machine, mix(), backend="exact")
        assert via_seam.l2_miss_rate == direct.l2_miss_rate
        assert via_seam.wall_cycles == direct.wall_cycles

    def test_analytical_backend_has_no_report(self):
        result, report = estimate_mix(
            core2duo(), mix(), backend="analytical"
        )
        assert report is None
        assert 0.0 <= result.l2_miss_rate <= 1.0

    def test_sampled_backend_reports_coverage(self):
        result, report = estimate_mix(
            core2duo(),
            mix(200_000),
            backend="sampled",
            options=EstimatorOptions(denominator=8, window_refs=512),
        )
        assert report is not None
        assert 0.0 < report.coverage <= 1.0
        assert result.wall_cycles > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_rejects_impossible_placements(self, backend):
        # The analytical backend never builds a scheduler, so it must
        # reject what the exact engine's scheduler would: a task on a
        # core the machine lacks, and a tid that names no task.
        error = ConfigurationError if backend == "analytical" else ReproError
        tasks = mix()
        a, b = (t.tid for t in tasks)
        for mapping in ([[], [], [a, b]], [[999], [b]]):
            with pytest.raises(error):
                estimate_mix(core2duo(), tasks, backend=backend, mapping=mapping)

    def test_all_backends_share_the_result_type(self):
        results = {}
        for backend in BACKENDS:
            result, _ = estimate_mix(core2duo(), mix(), backend=backend)
            results[backend] = result
        types = {type(r) for r in results.values()}
        assert len(types) == 1

    def test_emits_estimate_metrics_and_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use(TelemetryContext(tracer=tracer, metrics=registry)):
            estimate_mix(
                core2duo(),
                mix(200_000),
                backend="sampled",
                options=EstimatorOptions(denominator=8, window_refs=512),
            )
        snapshot = registry.snapshot()
        assert snapshot["estimate_sampled_runs_total"]["value"] == 1
        assert snapshot["estimate_refs_total"]["value"] > 0
        assert 0.0 < snapshot["estimate_sampled_coverage"]["value"] <= 1.0
        assert any(s.name == "estimate.run" for s in tracer.finished)
