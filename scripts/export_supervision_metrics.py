#!/usr/bin/env python
"""Export a supervision metrics snapshot as the CI chaos artifact.

Each chaos scenario in ``.github/workflows/ci.yml`` ends by running this
script: it drives a small supervised batch through the named failure
mode (a crashing worker, a heartbeat-silent hang, a memory hog, or a
poison spec tripping the circuit breaker), then dumps the telemetry
metrics registry — ``pool_watchdog_kills_total``,
``pool_backoff_seconds``, ``breaker_to_*_total``, and friends — as
pretty JSON for ``actions/upload-artifact``. The gate fails unless every
metric the scenario is supposed to light up actually appears in the
snapshot, so the artifact doubles as an end-to-end check that the
supervision layer is observable, not just correct.

Run from the repo root::

    python scripts/export_supervision_metrics.py --scenario hang \
        --out supervision-metrics.json
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Tuple

from _ci_util import ensure_repo_on_path, fail, gate_main, ok, repo_root

ensure_repo_on_path()
# Spawn-started workers import their job functions by qualified module
# name, so the repo root (for ``tests.jobs._workers``) must be on the
# path of the parent that pickles them.
if str(repo_root()) not in sys.path:
    sys.path.insert(0, str(repo_root()))

from repro.jobs import (  # noqa: E402
    JobFailure,
    Orchestrator,
    WorkerPool,
    make_run_spec,
)
from repro.jobs.spec import WorkloadSpec  # noqa: E402
from repro.perf.machine import core2duo  # noqa: E402
from repro.supervise.config import SupervisionConfig  # noqa: E402
from repro.telemetry.context import configure, deactivate  # noqa: E402
from repro.telemetry.exporters import metrics_json  # noqa: E402
from repro.telemetry.metrics import MetricsRegistry  # noqa: E402
from tests.jobs import _workers  # noqa: E402


def run_crash(tmp: str) -> None:
    """A worker that dies every attempt: retries, backoff, failure."""
    pool = WorkerPool(jobs=1, retries=2, backoff=0.01)
    [failure] = pool.run(_workers.always_crash, [0], keep_going=True)
    assert isinstance(failure, JobFailure) and failure.kind == "crash", failure


def run_hang(tmp: str) -> None:
    """A heartbeat-silent worker: watchdog kill, clean retry."""
    marker = Path(tmp) / "hang.marker"
    pool = WorkerPool(
        jobs=2, timeout=60.0, retries=1, backoff=0.01,
        hang_timeout=1.0, heartbeat_interval=0.1,
    )
    results = pool.run(
        _workers.hang_until_marker, [(str(marker), 11)], keep_going=True
    )
    assert results == [11], results


def run_memhog(tmp: str) -> None:
    """A worker ballooning past its RSS budget: killed, classified."""
    pool = WorkerPool(
        jobs=1, timeout=60.0, retries=0, backoff=0.01,
        hang_timeout=30.0, heartbeat_interval=0.1, max_rss_mb=150.0,
    )
    [failure] = pool.run(
        _workers.balloon_rss, [(300, 60.0, 0)], keep_going=True
    )
    assert isinstance(failure, JobFailure), failure
    assert failure.kind == "over_budget", failure


def _poison_executor(payload):
    """A deterministic poison spec: every execution raises."""
    raise RuntimeError("chaos: deterministic poison")


def run_breaker(tmp: str) -> None:
    """A poison spec tripping the breaker into the quarantine file."""
    supervision = SupervisionConfig(
        breaker_threshold=2,
        breaker_cooldown_waves=2,
        quarantine=str(Path(tmp) / "poison.jsonl"),
    )
    orchestrator = Orchestrator(
        jobs=1, keep_going=True, executor=_poison_executor,
        supervision=supervision,
    )
    spec = make_run_spec(
        core2duo(),
        WorkloadSpec(kind="spec", names=("mcf", "povray"),
                     instructions=100_000),
        mapping=[[0], [1]],
    )
    # Two failing waves trip the circuit (and write the quarantine
    # entry); the third wave is blocked without occupying a worker.
    for _ in range(3):
        [result] = orchestrator.run_specs([spec])
    assert isinstance(result, JobFailure), result
    assert result.kind == "quarantined", result
    assert orchestrator.counters.poisoned >= 1, orchestrator.counters


#: scenario name -> (driver, metric names the snapshot must contain).
SCENARIOS: Dict[str, Tuple[Callable[[str], None], Tuple[str, ...]]] = {
    "crash": (run_crash, ("pool_backoff_seconds", "pool_waves_total")),
    "hang": (
        run_hang,
        ("pool_watchdog_kills_total", "pool_heartbeat_age_seconds"),
    ),
    "memhog": (run_memhog, ("pool_watchdog_kills_total",)),
    "breaker": (run_breaker, ("breaker_to_open_total",)),
}


def main() -> int:
    """Run the requested scenarios; write and gate on the snapshot."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", choices=[*SCENARIOS, "all"], default="all",
        help="which failure mode to drive (default: all of them)",
    )
    parser.add_argument(
        "--out", default="supervision-metrics.json",
        help="where to write the metrics snapshot JSON",
    )
    args = parser.parse_args()
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]

    registry = MetricsRegistry()
    configure(metrics=registry)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                print(f"scenario {name}: driving the fault ...")
                SCENARIOS[name][0](tmp)
    finally:
        deactivate()

    snapshot = registry.snapshot()
    out = Path(args.out)
    out.write_text(metrics_json(snapshot) + "\n", encoding="ascii")
    print(f"wrote {len(snapshot)} metrics to {out}")

    missing = [
        metric
        for name in names
        for metric in SCENARIOS[name][1]
        if metric not in snapshot
    ]
    if missing:
        return fail(
            "supervision metrics absent from the snapshot: "
            + ", ".join(sorted(set(missing)))
        )
    return ok(
        f"scenarios {', '.join(names)} ran; every expected supervision "
        "metric is present in the snapshot"
    )


if __name__ == "__main__":
    gate_main(main)
