"""Command-line interface: ``repro-cli`` (or ``python -m repro.cli``).

Subcommands
-----------
``profiles``
    List the SPEC-like and PARSEC-like workload pools.
``mix``
    Run the paper's two-phase methodology on a benchmark mix and print the
    per-benchmark improvements (the Figure 10 metric).
``pairwise``
    Pairwise worst-case degradations for a set of benchmarks (Figure 3).
``sweep``
    A stratified Figure-10-style mix sweep through the job orchestrator
    (parallel workers and an on-disk result cache).
``figure``
    Regenerate a quick paper figure (1, 2/5, or table1) at reduced scale.
``lint``
    Run the AST-based invariant linter (:mod:`repro.lint`) over the
    tree: determinism, durability, worker-safety and telemetry-hygiene
    rules, with ``# repro: noqa[CODE]`` suppressions and a committed
    baseline — see ``docs/static-analysis.md``. With ``--flow``, the
    whole-program RPR6xx passes (:mod:`repro.flow`) run over the same
    parse: call-graph construction plus interprocedural determinism,
    async-safety, and durability checks, with JSON/DOT graph export.
``serve``
    Run the online scheduling daemon (:mod:`repro.service`): admits and
    retires processes dynamically over a newline-JSON TCP protocol and
    remaps cores incrementally — see ``docs/service.md``. With
    ``--state-dir`` the daemon is crash-consistent (event WAL +
    snapshots, :mod:`repro.durable`); ``--recover`` rebuilds its exact
    pre-crash state from that directory. ``--request-timeout`` and
    ``--shed-queue-depth`` arm the overload protections;
    ``--ewma-alpha`` / ``--flap-window`` / ``--flap-threshold`` expose
    the adaptation tuning (:class:`~repro.service.tuning.ServiceTuning`;
    the flap guard stays disarmed unless ``--flap-threshold`` is given).
``adversary``
    Score the scheduling stack against adversarial workloads
    (:mod:`repro.adversary`): signature-aliasing streams, footprint
    bombs, LRU thrashers and phase flappers, each run hardened vs
    unhardened — see ``docs/robustness.md``.
``submit``
    One-shot client for a running daemon: admit/retire/phase-change a
    process, or query status/mapping, printing the JSON response.
    ``--timeout`` bounds connect/read (loud ``ServiceTimeout`` instead
    of hanging); ``--client-id`` tags mutating ops for idempotent
    retries.

All commands accept ``--seed`` for reproducibility; ``mix`` and
``pairwise`` accept ``--instructions`` to trade fidelity for speed.
``mix`` and ``sweep`` accept ``--jobs`` (parallel simulation workers) and
``--cache-dir`` (content-addressed result cache) — see
:mod:`repro.jobs` — plus the robustness flags: ``--keep-going`` /
``--fail-fast`` (salvage failing mixes into a failure report vs abort on
the first error; fail-fast is the default) and ``--resume JOURNAL``
(write-ahead journal of completed runs; re-invoking with the same
journal re-executes only what had not finished), the supervision flags
``--max-retries N`` (retry budget per job), ``--hang-timeout SECONDS``
(heartbeat watchdog: kill workers that stop proving liveness) and
``--quarantine FILE`` (persisted poison-spec denylist fed by the circuit
breaker; consulted again on resume) — see :mod:`repro.supervise` and
``docs/robustness.md`` — and the observability flags ``--trace-out
FILE`` (Chrome trace-event JSON of the run, loadable in Perfetto) and
``--metrics-out FILE`` (Prometheus-format metrics snapshot plus a
printed summary table) — see :mod:`repro.telemetry` and
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro.adversary import (
    ADVERSARY_KINDS,
    adversary_machine,
    run_adversary_suite,
)
from repro.alloc import (
    InterferenceGraphPolicy,
    WeightedInterferenceGraphPolicy,
    WeightSortPolicy,
)
from repro.analysis.figures import (
    figure1_concept,
    figure2_counters_vs_footprint,
    figure10_native_sweep,
    table1_mapping_runtimes,
)
from repro.analysis.report import (
    render_counter_series,
    render_metrics,
    render_pairwise,
    render_sweep,
    render_table1,
)
from repro.durable import DurabilityManager
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.estimate.dispatch import BACKENDS
from repro.jobs import Orchestrator
from repro.lint import cli as lint_cli
from repro.service import (
    SchedulerService,
    ServiceConfig,
    ServiceServer,
    call_once,
)
from repro.supervise import SupervisionConfig
from repro.telemetry import (
    TRACE_ENV_VAR,
    MetricsRegistry,
    TelemetryContext,
    Tracer,
)
from repro.telemetry import configure as telemetry_configure
from repro.telemetry import deactivate as telemetry_deactivate
from repro.telemetry.exporters import write_merged_chrome_trace, write_prometheus
from repro.perf.experiment import pairwise_shared, two_phase
from repro.perf.machine import core2duo
from repro.utils.tables import format_percent, format_table
from repro.workloads.parsec import parsec_pool
from repro.workloads.spec import spec_pool, spec_profile_names

__all__ = ["main", "build_parser"]

_POLICIES = {
    "weight-sort": WeightSortPolicy,
    "interference": InterferenceGraphPolicy,
    "weighted": WeightedInterferenceGraphPolicy,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cli`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Symbiotic shared-cache scheduling (ICPP 2011) — "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profiles", help="list the workload profile pools")

    mix = sub.add_parser("mix", help="two-phase methodology on one mix")
    mix.add_argument("names", nargs="+", help="benchmark names (e.g. mcf povray)")
    mix.add_argument(
        "--policy", choices=sorted(_POLICIES), default="weighted",
        help="allocation policy (default: weighted)",
    )
    mix.add_argument("--instructions", type=int, default=6_000_000)
    mix.add_argument("--seed", type=int, default=3)
    _add_jobs_arguments(mix)

    pw = sub.add_parser("pairwise", help="pairwise degradations (Figure 3b)")
    pw.add_argument("names", nargs="+", help="benchmark names")
    pw.add_argument("--instructions", type=int, default=3_000_000)
    pw.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="stratified mix sweep through the job orchestrator"
    )
    sweep.add_argument(
        "--policy", choices=sorted(_POLICIES), default="weighted",
        help="allocation policy (default: weighted)",
    )
    sweep.add_argument(
        "--mixes-per-benchmark", type=int, default=2,
        help="stratified coverage: mixes containing each benchmark",
    )
    sweep.add_argument("--instructions", type=int, default=1_000_000)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.add_argument(
        "--backend", choices=list(BACKENDS), default="exact",
        help="simulation backend for phase-2 measurements "
        "(default: exact; see docs/estimation.md)",
    )
    _add_jobs_arguments(sweep)

    fig = sub.add_parser("figure", help="regenerate a quick paper figure")
    fig.add_argument("which", choices=["1", "2", "5", "table1"])
    fig.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="AST-based invariant linter (determinism, durability, "
        "worker-safety, telemetry hygiene)",
    )
    lint_cli.add_arguments(lint)

    serve = sub.add_parser(
        "serve",
        help="run the online scheduling daemon (newline-JSON over TCP)",
    )
    serve.add_argument(
        "--policy", choices=sorted(_POLICIES), default="weight-sort",
        help="allocation policy (default: weight-sort)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--cores", type=_positive_int, default=4,
        help="number of cores to map onto (default: 4)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks a free one and prints it (default: 0)",
    )
    serve.add_argument(
        "--queue-capacity", type=_positive_int, default=1024,
        help="bounded admission queue depth (default: 1024)",
    )
    serve.add_argument(
        "--drift-threshold", type=_positive_int, default=16,
        help="incremental updates tolerated before a full remap "
        "(default: 16)",
    )
    serve.add_argument(
        "--state-dir", default=None,
        help="durability directory (event WAL + snapshots); omit for a "
        "purely in-memory daemon",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="rebuild daemon state from --state-dir before serving "
        "(snapshot + WAL tail replay)",
    )
    serve.add_argument(
        "--snapshot-interval", type=_positive_int, default=256,
        help="events between durable state snapshots (default: 256)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-request deadline in seconds for mutating ops "
        "(default: none)",
    )
    serve.add_argument(
        "--shed-queue-depth", type=_positive_int, default=None,
        help="shed mutating requests with 'overloaded' once the "
        "admission queue is this deep (default: never shed)",
    )
    serve.add_argument(
        "--stale-after", type=float, default=None,
        help="seconds of event silence before status reports "
        "degraded=true (default: never)",
    )
    serve.add_argument(
        "--ewma-alpha", type=float, default=None,
        help="registry footprint-EWMA smoothing factor in (0, 1] "
        "(default: the ServiceTuning default)",
    )
    serve.add_argument(
        "--flap-window", type=_positive_int, default=None,
        help="sliding event window for the mapper's flap guard "
        "(default: the ServiceTuning default)",
    )
    serve.add_argument(
        "--flap-threshold", type=_positive_int, default=None,
        help="phase changes within --flap-window before a process is "
        "damped (remaps rate-limited); omit to disarm the flap guard "
        "(default: disarmed, byte-identical to the unguarded daemon)",
    )

    adv = sub.add_parser(
        "adversary",
        help="score the scheduling stack against adversarial workloads",
    )
    adv.add_argument(
        "--kinds", nargs="+", choices=list(ADVERSARY_KINDS),
        default=list(ADVERSARY_KINDS),
        help="adversary classes to score (default: all)",
    )
    adv.add_argument(
        "--policy", choices=sorted(_POLICIES), default="weight-sort",
        help="allocation policy (default: weight-sort)",
    )
    adv.add_argument("--instructions", type=_positive_int, default=150_000)
    adv.add_argument("--seed", type=int, default=3)
    adv.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="write the full AdversaryReport as JSON",
    )

    submit = sub.add_parser(
        "submit",
        help="one-shot client: admit/retire/query a running daemon",
    )
    submit.add_argument(
        "--op",
        choices=[
            "submit", "retire", "phase_change",
            "status", "mapping", "ping", "shutdown",
        ],
        default="submit",
        help="operation to perform (default: submit, i.e. admit)",
    )
    submit.add_argument(
        "name", nargs="?",
        help="benchmark profile name (submit / phase_change)",
    )
    submit.add_argument(
        "--pid", type=int, default=None,
        help="process id (submit / retire / phase_change)",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument(
        "--timeout", type=float, default=30.0,
        help="connect/read deadline in seconds (default: 30)",
    )
    submit.add_argument(
        "--client-id", default=None,
        help="idempotency tag: re-running a one-shot command with the "
        "same id is a safe retry of that ONE request (answered as a "
        "duplicate, never re-applied) — use a distinct id per logical "
        "request, or different requests dedup against each other",
    )

    return parser


def _positive_int(text: str) -> int:
    """argparse type for worker counts: a strictly positive integer.

    Rejects ``0`` and negatives at parse time with an actionable message
    (``--jobs 0`` used to surface much later as an opaque
    ``ConfigurationError`` from the pool constructor).
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value}); use '--jobs 1' for in-process "
            "execution"
        )
    return value


def _add_jobs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the orchestration flags shared by ``mix`` and ``sweep``."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="parallel simulation workers (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the content-addressed result cache",
    )
    going = parser.add_mutually_exclusive_group()
    going.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        help="salvage failing runs into a failure report instead of aborting",
    )
    going.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort on the first failing run (default)",
    )
    parser.set_defaults(keep_going=False)
    parser.add_argument(
        "--resume", metavar="JOURNAL", default=None,
        help="write-ahead journal file; completed runs recorded there are "
        "replayed instead of re-executed (checkpoint/resume)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="extra attempts a job gets after a worker crash, hang or "
        "timeout (default: 2)",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="arm the heartbeat watchdog: kill a worker after this many "
        "seconds of heartbeat silence (hung, as opposed to merely slow)",
    )
    parser.add_argument(
        "--quarantine", metavar="FILE", default=None,
        help="persisted poison-spec denylist: specs that trip the circuit "
        "breaker are recorded here and skipped by later (resumed) runs",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON file of the run "
        "(load in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a Prometheus-format metrics snapshot and print the "
        "metric summary table",
    )


def _wants_orchestration(args: argparse.Namespace) -> bool:
    """True when any *orchestration* flag (not telemetry) was given."""
    return (
        args.jobs > 1
        or args.cache_dir is not None
        or args.keep_going
        or args.resume is not None
        or args.max_retries != 2
        or args.hang_timeout is not None
        or args.quarantine is not None
    )


def _make_orchestrator(args: argparse.Namespace) -> Optional[Orchestrator]:
    """Build an orchestrator from the orchestration flags (or ``None``).

    ``None`` for the default flag set (``--jobs 1``, no cache, fail-fast,
    no journal, no supervision): the driver then runs its specs on its
    own in-process orchestrator, which is the same thing.
    """
    if not _wants_orchestration(args):
        return None
    supervision = None
    if args.hang_timeout is not None or args.quarantine is not None:
        supervision = SupervisionConfig(
            hang_timeout=args.hang_timeout,
            quarantine=args.quarantine,
        )
    return Orchestrator(
        jobs=max(1, args.jobs),
        cache_dir=args.cache_dir,
        retries=args.max_retries,
        journal=args.resume,
        keep_going=args.keep_going,
        supervision=supervision,
    )


@contextmanager
def _telemetry_session(
    args: argparse.Namespace,
) -> Iterator[Optional[TelemetryContext]]:
    """Activate telemetry for one command when its flags ask for it.

    Without ``--trace-out`` / ``--metrics-out`` this yields ``None`` and
    touches nothing — the command runs the exact disabled fast path.
    With either flag it installs a process-wide context, exports the
    requested files after a successful command, and always deactivates.
    ``--trace-out`` with ``--jobs > 1`` additionally publishes the trace
    path through :data:`~repro.telemetry.TRACE_ENV_VAR` so spawned
    workers trace themselves into part files the final write merges.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is None and metrics_out is None:
        yield None
        return
    context = telemetry_configure(
        tracer=Tracer(),
        metrics=MetricsRegistry(),
        trace_path=trace_out,
        metrics_path=metrics_out,
    )
    propagate = trace_out is not None and getattr(args, "jobs", 1) > 1
    saved_env = os.environ.get(TRACE_ENV_VAR)
    if propagate:
        os.environ[TRACE_ENV_VAR] = trace_out
    try:
        yield context
        _export_telemetry(context)
    finally:
        if propagate:
            if saved_env is None:
                os.environ.pop(TRACE_ENV_VAR, None)
            else:
                os.environ[TRACE_ENV_VAR] = saved_env
        telemetry_deactivate()


def _export_telemetry(context: TelemetryContext) -> None:
    """Write the trace / metrics files a finished command asked for."""
    if context.trace_path is not None:
        count = write_merged_chrome_trace(
            context.trace_path, context.tracer.drain()
        )
        print(f"\ntrace: {count} span(s) -> {context.trace_path}")
    if context.metrics_path is not None:
        snapshot = context.metrics.snapshot()
        write_prometheus(context.metrics_path, snapshot)
        print(f"\nmetrics: {len(snapshot)} series -> {context.metrics_path}")
        print()
        print(render_metrics(snapshot))


def _print_failures(sweep) -> None:
    """Print a keep-going sweep's failure report (when non-trivial)."""
    report = sweep.failures
    if report.ok:
        return
    print(report.summary())
    for failure in report.failures:
        print(f"  failed {'+'.join(failure.mix)}: {failure.error}")
    for degradation in report.degradations:
        print(
            f"  degraded {'+'.join(degradation.mix)}: "
            f"{len(degradation.events)} event(s), fell back to the "
            "default schedule"
        )


def _cmd_profiles() -> int:
    rows = [
        [p.name, p.category, p.working_set_kb, p.hot_set_kb,
         p.accesses_per_kinstr, p.pattern]
        for p in spec_pool()
    ]
    print(
        format_table(
            ["name", "category", "WS (KB)", "hot (KB)", "APKI", "pattern"],
            rows,
            title="SPEC2006-like pool (12 benchmarks)",
        )
    )
    rows = [
        [p.name, p.category, p.threads, p.shared_ws_kb, p.private_ws_kb,
         p.shared_fraction]
        for p in parsec_pool()
    ]
    print()
    print(
        format_table(
            ["name", "category", "threads", "shared (KB)", "private (KB)",
             "shared frac"],
            rows,
            title="PARSEC-like pool (8 applications)",
        )
    )
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    unknown = [n for n in args.names if n not in spec_profile_names()]
    if unknown:
        print(f"unknown benchmarks: {unknown}; see 'repro-cli profiles'")
        return 2
    machine = core2duo()
    try:
        orchestrator = _make_orchestrator(args)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    try:
        result = two_phase(
            machine,
            args.names,
            _POLICIES[args.policy](seed=args.seed),
            instructions=args.instructions,
            seed=args.seed,
            orchestrator=orchestrator,
        )
    except SimulationError as exc:
        print(f"mix failed: {exc}")
        return 1
    print(f"mix: {', '.join(args.names)}   policy: {args.policy}")
    if orchestrator is not None:
        print(orchestrator.counters.summary())
    if result.degradations:
        print(
            f"DEGRADED: signature failed health checks "
            f"({len(result.degradations)} event(s)); chosen schedule is "
            "the default fallback"
        )
    print(f"phase-1 decisions: {len(result.decisions)}")
    print(f"chosen schedule: {result.chosen_mapping}\n")
    rows = [
        [
            name,
            machine.seconds(result.worst_time(name)),
            machine.seconds(result.chosen_time(name)),
            format_percent(result.improvement(name)),
            format_percent(result.oracle_improvement(name)),
        ]
        for name in args.names
    ]
    print(
        format_table(
            ["benchmark", "worst (s)", "chosen (s)", "improvement", "oracle"],
            rows,
            float_digits=4,
        )
    )
    return 0


def _cmd_pairwise(args: argparse.Namespace) -> int:
    unknown = [n for n in args.names if n not in spec_profile_names()]
    if unknown:
        print(f"unknown benchmarks: {unknown}; see 'repro-cli profiles'")
        return 2
    if len(args.names) < 2:
        print("pairwise needs at least two benchmarks")
        return 2
    result = pairwise_shared(
        core2duo(), args.names, instructions=args.instructions, seed=args.seed
    )
    print(
        render_pairwise(
            result, "Pairwise worst-case degradation (shared L2, Figure 3b)"
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        orchestrator = _make_orchestrator(args) or Orchestrator(jobs=1)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    sweep = figure10_native_sweep(
        policy=_POLICIES[args.policy](seed=args.seed),
        instructions=args.instructions,
        seed=args.seed,
        mixes_per_benchmark=args.mixes_per_benchmark,
        orchestrator=orchestrator,
        keep_going=args.keep_going,
        backend=args.backend,
    )
    print(
        render_sweep(
            sweep,
            f"Figure 10-style sweep ({len(sweep.mix_results)} mixes, "
            f"policy: {args.policy}, backend: {args.backend})",
        )
    )
    print()
    print(orchestrator.counters.summary())
    _print_failures(sweep)
    return 1 if sweep.failures.failures else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "1":
        out = figure1_concept()
        rows = [
            [label, v["miss_rate"], int(v["footprint_lines"])]
            for label, v in out.items()
        ]
        print(
            format_table(
                ["application", "miss rate", "footprint (lines)"],
                rows,
                title="Figure 1: same miss rate, different footprint",
            )
        )
    elif args.which in ("2", "5"):
        series = figure2_counters_vs_footprint(laps=1, seed=args.seed)
        print(render_counter_series(series))
    else:  # table1
        names, times = table1_mapping_runtimes(
            instructions=2_000_000, seed=args.seed
        )
        print(render_table1(names, times, core2duo().clock_hz))
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    """Score hardened vs unhardened stacks under each adversary class."""

    def factory():
        cls = _POLICIES[args.policy]
        return cls() if cls is WeightSortPolicy else cls(seed=args.seed)

    machine = adversary_machine()
    report = run_adversary_suite(
        machine,
        [(args.policy, factory)],
        kinds=tuple(args.kinds),
        instructions=args.instructions,
        seed=args.seed,
    )
    rows = [
        [
            score.adversary,
            "hardened" if score.hardened else "baseline",
            f"{score.victim_worst_slowdown:.4f}",
            f"{score.worst_slowdown:.4f}",
            score.suspect_invocations,
            score.degraded_invocations,
            "yes" if score.gate_tripped else "",
        ]
        for score in report.scores
    ]
    print(
        format_table(
            ["adversary", "stack", "victim worst", "worst", "suspect",
             "degraded", "gate"],
            rows,
            title=f"Adversary suite ({machine.name}, policy: {args.policy}, "
            f"seed: {args.seed})",
        )
    )
    print()
    delta_rows = [
        [kind, f"{entry['unhardened_victim_worst_slowdown']:.4f}",
         f"{entry['hardened_victim_worst_slowdown']:.4f}",
         f"{entry['delta']:+.4f}"]
        for kind, entry in sorted(report.to_dict()["deltas"].items())
    ]
    print(
        format_table(
            ["adversary", "baseline", "hardened", "delta"],
            delta_rows,
            title="Hardening deltas (victim worst-case slowdown)",
        )
    )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"\nreport -> {args.json_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling daemon until a ``shutdown`` op or Ctrl-C."""
    if args.recover and args.state_dir is None:
        print("error: --recover requires --state-dir", file=sys.stderr)
        return 2
    tuning_kwargs = {}
    if args.ewma_alpha is not None:
        tuning_kwargs["ewma_alpha"] = args.ewma_alpha
    if args.flap_window is not None:
        tuning_kwargs["flap_window"] = args.flap_window
    if args.flap_threshold is not None:
        tuning_kwargs["flap_threshold"] = args.flap_threshold
    try:
        config = ServiceConfig(
            num_cores=args.cores,
            queue_capacity=args.queue_capacity,
            drift_threshold=args.drift_threshold,
            stale_after_seconds=args.stale_after,
            **tuning_kwargs,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cls = _POLICIES[args.policy]
    # WeightSortPolicy is deterministic by construction and takes no seed.
    policy = cls() if cls is WeightSortPolicy else cls(seed=args.seed)
    try:
        if args.recover:
            service = SchedulerService.recover(
                policy,
                config,
                state_dir=args.state_dir,
                snapshot_interval=args.snapshot_interval,
            )
            print(
                f"recovered {service.events_processed} event(s) of state "
                f"({service.recovered_events} replayed from the WAL tail, "
                f"snapshot: {service.recovered_from_snapshot})",
                flush=True,
            )
        elif args.state_dir is not None:
            service = SchedulerService(
                policy,
                config,
                durability=DurabilityManager(
                    args.state_dir,
                    snapshot_interval=args.snapshot_interval,
                ),
            )
        else:
            service = SchedulerService(policy, config)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        """Start the daemon, serve connections, and drain on exit."""
        await service.start()
        server = ServiceServer(
            service,
            host=args.host,
            port=args.port,
            request_timeout=args.request_timeout,
            shed_queue_depth=args.shed_queue_depth,
        )
        try:
            await server.start()
        except OSError as exc:
            await service.stop(drain=False)
            raise ConfigurationError(
                f"cannot listen on {args.host}:{args.port}: {exc}"
            ) from exc
        host, port = server.address
        print(
            f"repro-service listening on {host}:{port} "
            f"(policy: {args.policy}, cores: {args.cores})",
            flush=True,
        )
        try:
            await server.serve_until_closed()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; daemon stopped", file=sys.stderr)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repro-service processed {service.events_processed} event(s)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """One round-trip against a running daemon; prints the response."""
    fields = {}
    if args.op in ("submit", "phase_change"):
        if args.name is None or args.pid is None:
            print(
                f"error: '{args.op}' needs a profile name and --pid",
                file=sys.stderr,
            )
            return 2
        fields = {"pid": args.pid, "name": args.name}
    elif args.op == "retire":
        if args.pid is None:
            print("error: 'retire' needs --pid", file=sys.stderr)
            return 2
        fields = {"pid": args.pid}
    try:
        response = call_once(
            args.host,
            args.port,
            args.op,
            timeout=args.timeout,
            client_id=args.client_id,
            **fields,
        )
    except (OSError, ReproError) as exc:
        print(
            f"error: no daemon reachable at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok", True) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        # Pure static analysis: no simulation, no telemetry session.
        return lint_cli.run(args)
    if args.command == "serve":
        # Long-running daemon: telemetry is wired per-event inside the
        # service loop, not through the one-shot export session.
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    with _telemetry_session(args):
        if args.command == "profiles":
            return _cmd_profiles()
        if args.command == "mix":
            return _cmd_mix(args)
        if args.command == "pairwise":
            return _cmd_pairwise(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "adversary":
            return _cmd_adversary(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
