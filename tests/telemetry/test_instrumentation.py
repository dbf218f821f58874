"""End-to-end instrumentation acceptance.

The load-bearing claims from the observability contract
(docs/observability.md):

* enabling telemetry does not change a run's simulated results;
* the trace nests orchestrator → job → simulator → phase via explicit
  parent links;
* a fixed-seed run produces a byte-identical snapshot of every simulated
  metric — pinned here, histogram included;
* the CLI flags emit a valid Chrome trace-event JSON file and a
  Prometheus metrics file.
"""

import json

import pytest

from repro.jobs import Orchestrator, make_run_spec
from repro.jobs.spec import WorkloadSpec
from repro.perf.machine import core2duo
from repro.telemetry import MetricsRegistry, TelemetryContext, Tracer, use
from repro.telemetry.profiler import PhaseProfile


def tiny_spec():
    """The pinned fixed-seed measurement spec."""
    return make_run_spec(
        core2duo(),
        WorkloadSpec(
            kind="spec", names=("mcf", "povray"), instructions=100_000
        ),
        mapping=[[0], [1]],
    )


def traced_run():
    """Run the tiny spec under telemetry; return (outcome, spans, snapshot)."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with use(TelemetryContext(tracer=tracer, metrics=metrics)):
        outcome = Orchestrator(jobs=1).run_spec(tiny_spec())
    return outcome, tracer.drain(), metrics.snapshot()


class TestNeutrality:
    def test_enabled_run_matches_disabled_run(self):
        """Telemetry observes the simulation; it must not perturb it."""
        disabled = Orchestrator(jobs=1).run_spec(tiny_spec())
        enabled, _, _ = traced_run()
        assert enabled.to_dict() == disabled.to_dict()


class TestSpanTree:
    def test_orchestrator_job_simulator_phase_nesting(self):
        """The span tree links run_specs → execute → spec → sim → phases."""
        _, spans, _ = traced_run()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, span)
        chain = [
            "orchestrator.run_specs",
            "job.execute",
            "job.execute_spec",
            "simulator.run",
        ]
        for parent, child in zip(chain, chain[1:]):
            assert by_name[child].parent_id == by_name[parent].span_id, (
                f"{child} should nest under {parent}"
            )
        assert by_name["orchestrator.run_specs"].parent_id is None
        sim_id = by_name["simulator.run"].span_id
        phases = [s for s in spans if s.name.startswith("phase.")]
        assert phases, "simulator emitted no phase spans"
        assert all(p.parent_id == sim_id for p in phases)


class TestPinnedSnapshot:
    """Byte-identical simulated metrics for the fixed-seed tiny spec.

    Wall-clock metrics (``*_seconds*``, ``*_per_second``) are excluded —
    everything else is a pure function of the spec and must reproduce
    exactly, histogram buckets included.
    """

    def test_snapshot_pins(self):
        """The simulated quantities match their pinned values exactly."""
        _, _, snap = traced_run()
        assert snap["sim_runs_total"]["value"] == 1
        assert snap["sim_batches_total"]["value"] == 28
        assert snap["sim_l2_accesses_total"]["value"] == 5500
        assert snap["sim_phase_interleave_ops_total"]["value"] == 28
        assert snap["sim_phase_trace_gen_ops_total"]["value"] == 5500
        assert snap["sim_phase_l2_access_ops_total"]["value"] == 5500
        assert snap["sim_phase_timing_ops_total"]["value"] == 28
        assert snap["sim_wall_cycles"]["value"] == pytest.approx(
            956962.5123197634, rel=1e-9
        )
        for kind in ("submitted", "started", "completed", "batch_end"):
            assert snap[f"jobs_events_{kind}_total"]["value"] == 1
        assert snap["sim_l2_batch_misses"] == {
            "type": "histogram",
            "count": 28,
            "sum": 5086.0,
            "buckets": [
                ["0", 2], ["1", 2], ["2", 2], ["4", 2], ["8", 2],
                ["16", 2], ["32", 2], ["64", 2], ["128", 10],
                ["256", 28], ["+Inf", 28],
            ],
        }

    def test_two_runs_identical_for_simulated_metrics(self):
        """Determinism holds for the whole simulated subset, not just pins."""
        _, _, first = traced_run()
        _, _, second = traced_run()
        simulated = [
            name for name in first
            if "seconds" not in name and "per_second" not in name
        ]
        assert simulated, "no simulated metrics in snapshot"
        for name in simulated:
            assert first[name] == second[name], name


class TestPhaseProfile:
    def test_unknown_phase_is_an_error(self):
        """Typo'd phase names must not vanish silently."""
        profile = PhaseProfile(phases=("a",))
        with pytest.raises(KeyError):
            profile.add("b", 1.0)

    def test_emit_spans_lays_phases_back_to_back(self):
        """Aggregate spans tile the parent from its start."""
        tracer = Tracer()
        profile = PhaseProfile(phases=("a", "b", "c"))
        profile.add("a", 1.0, ops=2)
        profile.add("c", 0.5, ops=1)
        with tracer.span("run"):
            profile.emit_spans(tracer, start=10.0)
        spans = {s.name: s for s in tracer.drain()}
        assert "phase.b" not in spans  # zero ops: skipped
        assert spans["phase.a"].start == 10.0
        assert spans["phase.c"].start == 11.0
        assert profile.total_seconds() == pytest.approx(1.5)

    def test_emit_metrics_folds_totals(self):
        """Per-phase seconds/ops land as counters."""
        registry = MetricsRegistry()
        profile = PhaseProfile(phases=("a", "b"))
        profile.add("a", 0.25, ops=4)
        profile.emit_metrics(registry)
        snap = registry.snapshot()
        assert snap["sim_phase_a_seconds_total"]["value"] == 0.25
        assert snap["sim_phase_a_ops_total"]["value"] == 4
        assert "sim_phase_b_ops_total" not in snap


class TestCliFlags:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        """--trace-out writes nested Chrome JSON; --metrics-out Prometheus."""
        from repro.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        code = main([
            "mix", "mcf", "povray",
            "--instructions", "100000", "--seed", "3",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        names = {e["name"] for e in events}
        assert {
            "orchestrator.run_specs", "job.execute",
            "job.execute_spec", "simulator.run",
        } <= names
        by_id = {e["args"]["span_id"]: e for e in events}
        sims = [e for e in events if e["name"] == "simulator.run"]
        for sim in sims:  # every simulator run hangs off a job span
            parent = by_id[sim["args"]["parent_id"]]
            assert parent["name"] == "job.execute_spec"
        assert metrics.read_text().startswith("# TYPE")
        out = capsys.readouterr().out
        assert "telemetry metrics" in out

    def test_disabled_flags_leave_telemetry_inactive(self, capsys):
        """Without the flags the command runs with telemetry off."""
        from repro.cli import main
        from repro.telemetry import current

        code = main([
            "mix", "mcf", "povray",
            "--instructions", "100000", "--seed", "3",
        ])
        assert code == 0
        assert current() is None
        assert "telemetry metrics" not in capsys.readouterr().out
