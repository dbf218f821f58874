"""Steady end-to-end and per-layer benchmark of the symbiotic scheduler.

Run from the repository root::

    python3 perfbench/run.py --workload fig10-exact --seed 0 --seconds 30 --trace 0

Workloads: ``fig10-exact``, ``fig10-analytical``, ``daemon-wal`` (see
``perfbench/README.md``). The run repeats the workload's fixed pass for
about ``--seconds`` and reports medians over passes. It prints a
readable report, the machine fingerprint, a ``perfbench-detail`` JSON
line with every metric the workload names, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The untraced run scales its CPU times to a reference
speed of the host, measured as it runs by ``speed.SpeedProbe``. The
traced run also writes a Chrome trace-event file under ``.perfbench/``.
A run exits nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
# One string-hash seed for every run, so dict and set layouts, and the
# time they cost, do not change from one process to the next.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
sys.path.insert(0, str(ROOT / "src"))
# The measured program is the one users run: its own telemetry stays off.
os.environ.pop("REPRO_TRACE", None)

import numpy  # noqa: E402
import scipy  # noqa: E402

from repro.telemetry.context import current as telemetry_current  # noqa: E402

import speed  # noqa: E402
import suite  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
OUT_DIR = ROOT / ".perfbench"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from the mount table)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1].replace("\\040", " ")
                inside = target == point or target.startswith(
                    point.rstrip("/") + "/"
                )
                if inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_fingerprint(state_dir: Path) -> dict:
    """What a result must be tagged with before it is compared."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "state_fs": _fs_type(state_dir),
    }


def _measure_setups(args) -> list:
    """Time fresh interpreters from spawn to "ready" (imports, input
    generation, daemon start), one after another."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                line = child.stdout.readline()
                ready = time.perf_counter() - started
                child.wait()
            finally:
                watchdog.cancel()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(ready)
    return samples


def _passes(run_pass, seconds: float, per_round: int = 1) -> list:
    """Repeat *run_pass* while another round is expected to fit in
    *seconds*; always at least one round."""
    done = []
    started = time.perf_counter()
    while True:
        for _ in range(per_round):
            done.append(run_pass(len(done)))
        elapsed = time.perf_counter() - started
        if elapsed * (len(done) + per_round) / len(done) > seconds:
            return done


def _check(workload, passes) -> tuple:
    """(attempted, failed, mismatch notes) over every pass of the run."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes = []
    reference = passes[0].digest
    for p in passes:
        if p.digest != reference:
            failed += p.attempted
            notes.append("pass digest differs from the first pass")
    pinned = suite.PINNED_DIGESTS.get(workload.name)
    if workload.full_size and workload.seed == suite.DEFAULT_SEED and pinned:
        if reference != pinned:
            failed += passes[0].attempted
            notes.append(f"digest {reference} != pinned {pinned}")
    return attempted, failed, notes


def _probed_pass(workload, probe):
    """One untraced pass, with the host's slowdown over it."""
    start = speed.mark()
    done = workload.run_pass(None)
    done.slowdown = speed.kernel_cpu(start, speed.mark()) / probe.reference_s
    return done


def untraced_run(workload, args) -> dict:
    setups = _measure_setups(args)
    with speed.SpeedProbe(workload.probe_kernel) as probe:
        passes = _passes(lambda i: _probed_pass(workload, probe),
                         args.seconds)
    attempted, failed, notes = _check(workload, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = suite.end_to_end(passes, setups, peak_rss_mb)
    requests = sum(len(p.requests_cpu_ms) for p in passes)
    samples = {"setup_s": len(setups), "norm_cpu_s": len(passes),
               "ops_per_norm_cpu_s": len(passes),
               "request_norm_cpu_p50_ms": requests}
    report = {
        name: {"value": value, "unit": suite.END_TO_END_UNITS[name],
               **({"samples": samples[name]} if name in samples else {})}
        for name, value in metrics.items()
    }
    report.update(suite.cpu_metrics(passes))
    report["slowdown_vs_reference"]["samples"] = speed.mark()[2]
    report.update(suite.wall_clock_metrics(workload, passes))
    report["fail_ratio"] = {"value": failed / attempted, "unit": "ratio",
                            "failed": failed, "attempted": attempted}
    return {
        "passes": len(passes),
        "digest": passes[0].digest,
        "counts": passes[0].counts,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "report": report,
        "metrics": {k: {"value": v, "unit": suite.END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
    }


def traced_run(workload, args, fingerprint: dict) -> dict:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, ``trace.overhead_ratio`` from both."""
    tracers, plain, traced = [], [], []

    def run_pass(i):
        # Rounds alternate U,T and T,U so warm-up favours neither kind.
        if i % 4 in (0, 3):
            plain.append(workload.run_pass(None))
            return plain[-1]
        # Only the first traced pass keeps its spans for the trace file.
        tracer = Tracer() if not tracers else Tracer(span_cap=0)
        tracers.append(tracer)
        traced.append(workload.run_pass(tracer))
        return traced[-1]

    passes = _passes(run_pass, args.seconds, per_round=2)
    attempted, failed, notes = _check(workload, passes)
    per_pass = [suite.layer_values(t) for t in tracers]
    metrics = {}
    for name, unit, _, deterministic, _ in suite.LAYER_METRICS:
        values = [values[name] for values in per_pass]
        if deterministic and len(set(values)) != 1:
            failed += 1
            notes.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = (
        statistics.median(p.cpu_s for p in traced)
        / statistics.median(p.cpu_s for p in plain) - 1.0
    )
    name, unit, _ = suite.OVERHEAD_METRIC
    metrics[name] = {"value": overhead, "unit": unit}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    tracers[0].write_chrome_trace(trace_path, {
        "workload": workload.name, "seed": workload.seed,
        "fingerprint": fingerprint,
    })
    return {
        "passes": len(passes),
        "digest": passes[0].digest,
        "counts": traced[0].counts,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def _report(workload, args, fingerprint, outcome) -> None:
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={outcome['passes']} digest={outcome['digest']}")
    shown = outcome.get("report", outcome["metrics"])
    for name, entry in shown.items():
        value = entry["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        print(f"  {name:40s} {text:>14s} {entry['unit']:8s}"
              + (f" {extra}" if extra else ""))
    for note in outcome["notes"]:
        print(f"  CHECK FAILED: {note}")
    print("perfbench-fingerprint " + json.dumps(fingerprint, sort_keys=True))
    detail = {k: outcome[k] for k in
              ("passes", "digest", "counts", "attempted", "failed", "notes")}
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  report=outcome.get("report"), fingerprint=fingerprint,
                  trace_file=outcome.get("trace_file"))
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if telemetry_current() is not None:
        raise RuntimeError("repro.telemetry must stay off while measuring")

    workload = suite.WORKLOADS[args.workload](args.seed)
    state_dir = OUT_DIR / "state" / f"{args.workload}-{os.getpid()}"
    state_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup(state_dir)
            print("ready", flush=True)
            return 0
        fingerprint = machine_fingerprint(state_dir)
        workload.setup(state_dir)
        if args.trace:
            outcome = traced_run(workload, args, fingerprint)
        else:
            outcome = untraced_run(workload, args)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    _report(workload, args, fingerprint, outcome)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
