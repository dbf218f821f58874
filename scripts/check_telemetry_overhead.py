#!/usr/bin/env python
"""CI gate for the telemetry overhead contract (docs/observability.md).

Two claims, both halves of "off by default, cheap when on":

1. **Disabled is byte-identical.** Two runs of the same fixed-seed CLI
   command without telemetry flags must produce identical stdout, and an
   *enabled* run's stdout must start with that exact disabled output —
   telemetry may only append (the trace/metrics footer), never perturb
   the experiment's own numbers.
2. **Enabled costs < 10%.** The same ``mix mcf povray`` two-phase run
   (every ``MulticoreSimulator.run`` of phase 1 and phase 2) is timed
   in-process, with telemetry enabled (a tracer and a metrics registry,
   exported as the CLI's ``--trace-out`` / ``--metrics-out`` would) and
   disabled, in ``ROUNDS`` rounds. Each round runs the two sides in
   ABBA or BAAB order and takes the ratio of their process CPU
   seconds; the median of the round ratios must stay within ``LIMIT``
   (1.10). Timing whole CLI processes instead would mostly time
   ``import repro.cli``, and wall time on a shared host drifts by more
   than the contract's 10%.

The emitted trace must also parse as a JSON array of Chrome trace
events whose spans carry ``span_id``/``parent_id`` links.

Run from the repo root: ``python scripts/check_telemetry_overhead.py``.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _ci_util import ensure_repo_on_path, fail, gate_main, ok, repo_root

REPO = repo_root()

#: The fixed-seed mix under test: heavy enough that per-batch costs
#: would show, light enough for CI.
MIX = ("mcf", "povray")
INSTRUCTIONS = 400_000
SEED = 3

#: The same mix through the CLI (default ``weighted`` policy), for the
#: byte-identity checks.
COMMAND = [
    sys.executable, "-m", "repro.cli", "mix", *MIX,
    "--instructions", str(INSTRUCTIONS), "--seed", str(SEED),
]

#: Enabled CPU time may be at most this multiple of disabled CPU time.
LIMIT = 1.10

#: Timing rounds; each runs both sides twice, in ABBA or BAAB order.
ROUNDS = 10


def run(extra, cwd) -> str:
    """Run the CLI command with *extra* args; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_TRACE", None)
    proc = subprocess.run(
        COMMAND + extra, cwd=cwd, env=env, check=True,
        capture_output=True, text=True,
    )
    return proc.stdout


def check_trace(path: Path) -> None:
    """Assert *path* is a Chrome trace-event JSON array with linked spans."""
    events = json.loads(path.read_text())
    assert isinstance(events, list) and events, "trace is not a JSON array"
    for event in events:
        assert event["ph"] == "X" and "ts" in event and "dur" in event, event
    linked = [e for e in events if "parent_id" in e["args"]]
    assert linked, "no span carries a parent_id link"


def timed_mix(enabled: bool, out_dir: Path) -> float:
    """Process CPU seconds of one in-process two-phase run of the mix.

    Enabled, the run collects spans and metrics and exports both files,
    as the CLI's ``--trace-out`` / ``--metrics-out`` do. Both sides call
    :func:`~repro.perf.experiment.two_phase` directly, so they run the
    same code path and differ only in telemetry.
    """
    from repro import telemetry
    from repro.alloc.weighted import WeightedInterferenceGraphPolicy
    from repro.perf.experiment import two_phase
    from repro.perf.machine import core2duo
    from repro.telemetry.exporters import write_merged_chrome_trace, write_prometheus

    started = time.process_time()
    if enabled:
        context = telemetry.configure(
            tracer=telemetry.Tracer(), metrics=telemetry.MetricsRegistry()
        )
    try:
        two_phase(
            core2duo(), list(MIX), WeightedInterferenceGraphPolicy(seed=SEED),
            instructions=INSTRUCTIONS, seed=SEED,
        )
        if enabled:
            write_merged_chrome_trace(
                str(out_dir / "ab-trace.json"), context.tracer.drain()
            )
            write_prometheus(
                str(out_dir / "ab-metrics.prom"), context.metrics.snapshot()
            )
    finally:
        telemetry.deactivate()
    return time.process_time() - started


def overhead_ratios(out_dir: Path) -> list:
    """Enabled/disabled CPU ratio of each of ``ROUNDS`` alternating rounds."""
    ensure_repo_on_path()
    for enabled in (False, True):
        timed_mix(enabled, out_dir)  # warm-up: lazy imports, profile tables
    ratios = []
    for round_index in range(ROUNDS):
        first = round_index % 2 == 0
        cpu = {True: 0.0, False: 0.0}
        for enabled in (first, not first, not first, first):
            cpu[enabled] += timed_mix(enabled, out_dir)
        ratios.append(cpu[True] / cpu[False])
    return ratios


def main() -> int:
    """Run both checks; return a process exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        baseline = run([], tmp)
        repeat = run([], tmp)
        if repeat != baseline:
            return fail("two disabled runs differ — disabled mode is not "
                        "deterministic/byte-identical")

        trace = Path(tmp) / "trace.json"
        metrics = Path(tmp) / "metrics.prom"
        enabled_out = run(
            ["--trace-out", str(trace), "--metrics-out", str(metrics)], tmp
        )
        if not enabled_out.startswith(baseline):
            return fail("enabled stdout does not start with the disabled "
                        "output — telemetry perturbed the experiment")
        check_trace(trace)
        if not metrics.read_text().startswith("# TYPE"):
            return fail("metrics file is not Prometheus exposition text")

        ratios = overhead_ratios(Path(tmp))
    ratio = statistics.median(ratios)
    print("enabled/disabled CPU per round: "
          + " ".join(f"{r:.3f}" for r in ratios))
    print(f"median ratio {ratio:.3f} over {ROUNDS} rounds (limit {LIMIT})")
    if ratio > LIMIT:
        return fail(f"telemetry overhead {100 * (ratio - 1):.1f}% exceeds "
                    f"{100 * (LIMIT - 1):.0f}%")
    return ok("disabled byte-identical; enabled overhead within budget")


if __name__ == "__main__":
    gate_main(main)
