"""CI chaos gate: kill the durable daemon mid-trace, recover, compare.

Runs the scheduling daemon as a real subprocess with a durability
directory attached, replays a seeded arrival trace over the TCP
protocol with an idempotency-tagged client, and SIGKILLs the daemon at
seeded random event indices. After every kill the daemon is restarted
with ``--recover``, the client reconnects (seeded capped-jitter
backoff) and resends its last mutating request — which the recovered
dedup table must answer as a duplicate, never re-apply.

Verdicts on the tentpole's contracts:

* **mapping equivalence** — the final daemon mapping is byte-identical
  to an uninterrupted in-process oracle run over the same events;
* **zero duplicate applies** — the daemon's processed-event counter
  equals the trace length exactly, every crash resend was answered
  from the dedup table, and the oracle's remap counters match;
* **bounded recovery** — every restart replays at most one snapshot
  interval of WAL tail.

Writes a recovery-metrics JSON artifact to ``--out`` (default
``service-crash-report.json``) for the workflow to upload. Exit 0 on
pass, 1 on any contract violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import re
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from _ci_util import ensure_repo_on_path, fail, gate_main, ok, repo_root

ensure_repo_on_path()

#: Matches the serve command's recovery banner.
RECOVERED_RE = re.compile(
    r"recovered (\d+) event\(s\) of state \((\d+) replayed from the WAL "
    r"tail, snapshot: (True|False)\)"
)


def parse_args() -> argparse.Namespace:
    """The gate's command line."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--events", type=int, default=400,
        help="trace length in events (default: 400)",
    )
    parser.add_argument(
        "--seed", type=int, default=29,
        help="trace and crash-schedule seed (default: 29)",
    )
    parser.add_argument(
        "--crashes", type=int, default=3,
        help="number of SIGKILLs injected at random indices (default: 3)",
    )
    parser.add_argument(
        "--snapshot-interval", type=int, default=64,
        help="events between durable snapshots (default: 64)",
    )
    parser.add_argument(
        "--out", default="service-crash-report.json",
        help="where to write the recovery-metrics JSON artifact",
    )
    return parser.parse_args()


def free_port() -> int:
    """A currently-free localhost TCP port for the daemon to reuse."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_daemon(
    port: int, state_dir: Path, snapshot_interval: int, recover: bool
) -> subprocess.Popen:
    """Launch the serve subprocess and block until it is listening.

    Returns the process with its recovery banner (if any) parsed into
    ``proc.recovered`` as ``(events_total, tail_replayed, from_snapshot)``.
    """
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--policy", "weight-sort", "--cores", "4",
        "--port", str(port),
        "--state-dir", str(state_dir),
        "--snapshot-interval", str(snapshot_interval),
    ]
    if recover:
        argv.append("--recover")
    env = dict(os.environ)
    src = str(repo_root() / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=repo_root(),
        env=env,
    )
    proc.recovered = None  # type: ignore[attr-defined]
    assert proc.stdout is not None
    for line in proc.stdout:
        print(f"  [daemon] {line.rstrip()}")
        match = RECOVERED_RE.search(line)
        if match:
            proc.recovered = (  # type: ignore[attr-defined]
                int(match.group(1)),
                int(match.group(2)),
                match.group(3) == "True",
            )
        if "listening on" in line:
            return proc
    raise RuntimeError(
        f"daemon exited (code {proc.wait()}) before listening"
    )


async def run_chaos(args: argparse.Namespace, state_dir: Path) -> Dict[str, Any]:
    """Drive the trace with kills; returns the report payload."""
    from repro.service.client import ServiceClient
    from repro.workloads.arrivals import poisson_trace

    trace = poisson_trace(args.events, seed=args.seed)
    schedule = random.Random(args.seed)
    crash_at = sorted(
        schedule.sample(range(1, len(trace)), min(args.crashes, len(trace) - 1))
    )
    print(
        f"replaying {len(trace)} events, SIGKILL after indices {crash_at}"
    )

    port = free_port()
    proc = start_daemon(port, state_dir, args.snapshot_interval, recover=False)
    client = await ServiceClient.connect(
        "127.0.0.1", port, timeout=10.0, client_id="chaos"
    )
    recoveries: List[Dict[str, Any]] = []
    duplicate_resends = 0
    try:
        for index, arrival in enumerate(trace, start=1):
            if arrival.kind == "admit":
                response = await client.submit(arrival.pid, arrival.name)
            elif arrival.kind == "retire":
                response = await client.retire(arrival.pid)
            else:
                response = await client.phase_change(
                    arrival.pid, arrival.name
                )
            if not response.get("ok"):
                raise RuntimeError(
                    f"transport error at event {index}: {response}"
                )
            if index in crash_at:
                proc.kill()
                proc.wait()
                print(f"  killed daemon after event {index}; recovering")
                proc = start_daemon(
                    port, state_dir, args.snapshot_interval, recover=True
                )
                total, tail, from_snapshot = proc.recovered  # type: ignore[attr-defined]
                recoveries.append(
                    {
                        "after_event": index,
                        "recovered_total": total,
                        "wal_tail_replayed": tail,
                        "from_snapshot": from_snapshot,
                    }
                )
                await client.reconnect(attempts=10)
                resent = await client.resend_last()
                if resent.get("result", {}).get("duplicate") is True:
                    duplicate_resends += 1
                else:
                    raise RuntimeError(
                        f"resend after crash {index} was re-applied "
                        f"instead of deduplicated: {resent}"
                    )
        status = (await client.status())["status"]
        mapping = (await client.mapping())["mapping"]
        await client.shutdown()
    finally:
        await client.close()
        proc.kill()
        proc.wait()
    return {
        "events": len(trace),
        "seed": args.seed,
        "snapshot_interval": args.snapshot_interval,
        "crash_indices": crash_at,
        "recoveries": recoveries,
        "duplicate_resends": duplicate_resends,
        "daemon_status": status,
        "daemon_mapping": mapping,
    }


def run_oracle(events: int, seed: int) -> Dict[str, Any]:
    """Uninterrupted in-process run over the same trace (no settle —
    the wire protocol has no settle op, so the daemon never ran one)."""
    from repro.alloc.weight_sort import WeightSortPolicy
    from repro.service.daemon import SchedulerService, ServiceConfig
    from repro.service.events import event_from_arrival
    from repro.workloads.arrivals import poisson_trace

    async def _run() -> Dict[str, Any]:
        service = SchedulerService(
            WeightSortPolicy(), ServiceConfig(num_cores=4)
        )
        await service.start()
        try:
            for arrival in poisson_trace(events, seed=seed):
                await service.submit_event(event_from_arrival(arrival))
        finally:
            await service.stop(drain=True)
        return {
            "processed": service.events_processed,
            "mapping": str(service.mapper.mapping),
            "full_remaps": service.mapper.full_remaps,
            "incremental_updates": service.mapper.incremental_updates,
            "population": len(service.registry),
        }

    return asyncio.run(_run())


def main() -> int:
    """Run the chaos replay and verdict on the recovery contracts."""
    import tempfile

    args = parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        report = asyncio.run(run_chaos(args, Path(tmp) / "state"))
    oracle = run_oracle(args.events, args.seed)
    report["oracle"] = oracle

    status = report["daemon_status"]
    checks = {
        "mapping_match": report["daemon_mapping"] == oracle["mapping"],
        "processed_match": (
            status["events"]["processed"] == oracle["processed"] == args.events
        ),
        "remaps_match": (
            status["mapper"]["full_remaps"] == oracle["full_remaps"]
            and status["mapper"]["incremental_updates"]
            == oracle["incremental_updates"]
        ),
        "population_match": (
            status["registry"]["population"] == oracle["population"]
        ),
        "all_resends_deduplicated": (
            report["duplicate_resends"] == len(report["crash_indices"])
        ),
        "recovery_bounded": all(
            r["wal_tail_replayed"] <= args.snapshot_interval
            for r in report["recoveries"]
        ),
    }
    report["checks"] = checks
    target = Path(args.out)
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recovery-metrics artifact written to {target}")

    failed = sorted(name for name, passed in checks.items() if not passed)
    if failed:
        return fail(
            f"crash-recovery contract violated: {', '.join(failed)} "
            f"(daemon mapping {report['daemon_mapping']!r}, oracle "
            f"{oracle['mapping']!r})"
        )
    return ok(
        f"{len(report['crash_indices'])} kill(s) over {args.events} events: "
        "recovered mapping byte-identical to the oracle, "
        f"{report['duplicate_resends']} resend(s) deduplicated, "
        "zero duplicate applies"
    )


if __name__ == "__main__":
    gate_main(main)
