"""Shared fixtures for the figure/table reproduction harnesses.

Every ``bench_*`` file regenerates one table or figure from the paper's
evaluation section: it computes the series at a default scale (set
``REPRO_FULL=1`` for the paper's full sweep sizes), prints the paper-style
rows, saves them under ``benchmarks/results/``, and times the computation
with a single pedantic round (these are experiments, not microbenchmarks —
re-running them dozens of times would be pointless).
"""

import json
import os
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def full_scale() -> bool:
    """True when REPRO_FULL=1: run the paper's full sweep sizes."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def jobs() -> int:
    """Worker count from REPRO_JOBS (default 1: in process).

    Set ``REPRO_JOBS=4`` to fan the sweep harnesses out over a
    :class:`repro.jobs.Orchestrator` process pool; the results are
    bit-identical to the in-process run (see ``docs/orchestration.md``).
    """
    return int(os.environ.get("REPRO_JOBS", "1"))


def orchestrator_for(jobs: int):
    """An :class:`~repro.jobs.Orchestrator` for *jobs* > 1, else ``None``.

    ``None`` leaves each driver its default: an in-process orchestrator
    with no result cache.
    """
    if jobs <= 1:
        return None
    from repro.jobs import Orchestrator

    return Orchestrator(jobs=jobs)


@pytest.fixture(autouse=True)
def telemetry(request):
    """Per-bench telemetry: metrics always on, tracing when REPRO_TRACE set.

    Every bench runs under an active :mod:`repro.telemetry` context so
    the simulator/orchestrator metrics it accumulates land in a
    machine-readable ``results/BENCH_<name>.json`` (bench name, wall
    seconds, metrics snapshot) at teardown — the artifact CI and
    regression tooling diff instead of scraping ``bench_output.txt``.

    Setting ``REPRO_TRACE`` (any non-empty value; with ``REPRO_JOBS > 1``
    it must be a writable path, as spawned workers append span part files
    next to it) additionally records spans and writes a per-bench Chrome
    trace to ``results/TRACE_<name>.json``.
    """
    from repro.telemetry import MetricsRegistry, TRACE_ENV_VAR, Tracer
    from repro.telemetry import configure, deactivate
    from repro.telemetry.exporters import merged_trace_events

    trace_root = os.environ.get(TRACE_ENV_VAR) or None
    context = configure(
        tracer=Tracer() if trace_root else None,
        metrics=MetricsRegistry(),
        trace_path=trace_root,
    )
    name = request.node.name
    started = time.perf_counter()
    try:
        yield context
    finally:
        wall = time.perf_counter() - started
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {
            "name": name,
            "wall_seconds": wall,
            "metrics": context.metrics.snapshot(),
        }
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        if context.tracer is not None:
            events = merged_trace_events(context.tracer.drain(), trace_root)
            (RESULTS_DIR / f"TRACE_{name}.json").write_text(
                json.dumps(events, sort_keys=True) + "\n"
            )
        deactivate()


@pytest.fixture()
def report():
    """Print a rendered report block and persist it under results/."""

    def _report(name: str, text: str) -> None:
        banner = "=" * 72
        print(f"\n{banner}\n{name}\n{banner}\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Execute *fn* exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
