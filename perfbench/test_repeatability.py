"""Repeatability of the benchmark's counts, and proof its wrappers are inert.

Each workload's traced pass runs twice at a small size: every
deterministic per-layer count must repeat exactly, and traced and
untraced passes must produce the same output digest. Run from the
repository root::

    python3 -m pytest perfbench/test_repeatability.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import suite  # noqa: E402
from repro.cache.cache import SetAssociativeCache  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "fig10-exact": dict(
        mixes=suite.Fig10Exact.MIXES[:1],
        instructions=300_000,
        phase1_min_wall=40_000_000.0,
    ),
    "fig10-analytical": dict(num_mixes=6, instructions=300_000),
    "daemon-wal": dict(checkpoints=2, restarts=3),
}


def _two_traced_passes(name, tmp_path):
    workload = suite.WORKLOADS[name](seed=3, **SMALL[name])
    workload.setup(tmp_path)
    plain = workload.run_pass(None)
    tracers = [Tracer(), Tracer()]
    traced = [workload.run_pass(tracer) for tracer in tracers]
    return plain, traced, [suite.layer_values(t) for t in tracers]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_and_tracing_changes_no_output(name, tmp_path):
    original = SetAssociativeCache.__dict__["access_batch"]
    plain, traced, layers = _two_traced_passes(name, tmp_path)

    assert SetAssociativeCache.__dict__["access_batch"] is original
    assert plain.failed == 0 and all(p.failed == 0 for p in traced)
    assert {p.digest for p in traced} == {plain.digest}
    assert traced[0].counts == traced[1].counts == plain.counts
    first, second = layers
    for metric, _, _, deterministic, _ in suite.LAYER_METRICS:
        if deterministic:
            assert first[metric] == second[metric], metric

    if name == "fig10-exact":
        assert first["cache.access_batch.refs"] == plain.counts["l2_refs"] > 0
        assert first["cache.access_batch.misses"] == plain.counts["l2_misses"]
        assert first["cache.access_batch.evictions"] > 0
        assert first["core.record_events.events"] > 0
        assert first["alloc.monitor.invoke.calls"] > 0
        assert first["perf.simulator.run.calls"] == 4  # phase 1 + 3 mappings
        assert first["workloads.next_batch.refs"] == plain.counts["l2_refs"]
        assert first["durable.wal.append.calls"] == 0
    else:
        assert first["cache.access_batch.calls"] == 0
        assert first["perf.simulator.run.calls"] == 0
    if name == "fig10-analytical":
        assert first["estimate.analytical.predict.calls"] == plain.ops == 18
        assert first["estimate.reuse.profile_task.calls"] == 12
        assert (first["estimate.reuse.profile_task.refs"]
                == plain.counts["profiled_refs"])
    if name == "daemon-wal":
        events = plain.counts["events"]
        assert events == 3 * suite.DaemonWal.SNAPSHOT_INTERVAL - 1
        assert first["durable.wal.append.calls"] == events
        assert first["durable.wal.fsyncs"] == events
        assert first["durable.snapshot.save.calls"] == plain.counts["snapshots"]
        assert first["durable.recover.replayed_events"] == 3 * 255
        assert (first["service.mapper.full.calls"]
                + first["service.mapper.incremental.calls"]) > events
        assert first["alloc.policy.allocate.calls"] > 0


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = [m[0] for m in suite.LAYER_METRICS]
    layer_names.append(suite.OVERHEAD_METRIC[0])
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    one = suite.Pass(1.0, 1.0, 1, 1.0, 1.0, [1.0], [1.0], "", 1, 0, {},
                     slowdown=1.0)
    emitted = suite.end_to_end([one], [1.0], 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(emitted)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        suite.END_TO_END_UNITS
    )
    units = {m[0]: m[1] for m in suite.LAYER_METRICS}
    units[suite.OVERHEAD_METRIC[0]] = suite.OVERHEAD_METRIC[1]
    for entry in spec["per_layer"]:
        assert entry["unit"] == units[entry["name"]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        suite.WORKLOADS
    )


@pytest.mark.parametrize("name", sorted(speed.KERNELS))
def test_speed_probe_time_is_taken_out_of_the_clocks(name):
    kernel, _ = speed.KERNELS[name]
    assert kernel() == kernel()
    start = speed.mark()
    wall0, cpu0 = speed.clocks()
    raw0 = time.process_time()
    with speed.SpeedProbe(name):
        while time.process_time() - raw0 < 0.6:
            sum(range(1000))
    wall1, cpu1 = speed.clocks()
    raw = time.process_time() - raw0
    end = speed.mark()
    calls = end[2] - start[2]
    assert calls >= 5
    assert speed.kernel_cpu(start, end) > 0
    assert cpu1 - cpu0 == pytest.approx(raw - (end[1] - start[1]), abs=1e-3)
    assert wall1 - wall0 > 0
