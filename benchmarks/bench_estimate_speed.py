"""Speedup of the fast-path backends at figure-10 sweep scale.

The paper's figure-10 evaluation covers all C(12,4) = 495 four-task SPEC
mixes. Exact and sampled simulation pay per mix; the analytical backend
profiles each of the 12 benchmarks once and prices every mix with
closed-form arithmetic, so its cost is one profiling pass plus 1–2 ms per
prediction — the asymmetry this bench pins down:

* **analytical**: profiling + all 495 predictions, measured in full;
* **exact / sampled**: measured on five probe mixes drawn from the
  reference-count quantiles of the 495 (cost scales with references
  simulated), then extrapolated to the sweep by total reference count.

CI gates on the resulting speedups (the ``estimate-speed`` job):
analytical must clear ``REPRO_EST_MIN_SPEEDUP_ANALYTICAL`` (default
100x) and sampled ``REPRO_EST_MIN_SPEEDUP_SAMPLED`` (default 10x).
"""

import itertools
import os
import time

from conftest import run_once

from repro.estimate.analytical import AnalyticalModel
from repro.estimate.reuse import profile_task
from repro.estimate.sampled import sampled_simulation
from repro.perf.machine import quadcore_shared
from repro.perf.runner import build_tasks, run_mix
from repro.workloads.spec import spec_profile_names

#: Speedup floors (env-overridable: shared CI runners shift absolute
#: times, and although ratios are far more stable, they still wobble).
MIN_SPEEDUP_ANALYTICAL = float(
    os.environ.get("REPRO_EST_MIN_SPEEDUP_ANALYTICAL", "100")
)
MIN_SPEEDUP_SAMPLED = float(
    os.environ.get("REPRO_EST_MIN_SPEEDUP_SAMPLED", "10")
)

#: Reference-count quantiles the exact/sampled probe mixes come from.
PROBE_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _measure(instructions):
    """Time the three backends over the 495-mix figure-10 sweep."""
    machine = quadcore_shared()
    names = spec_profile_names()
    tasks_by = {
        n: build_tasks([n], instructions=instructions, seed=0)[0]
        for n in names
    }

    started = time.perf_counter()
    profiles = {n: profile_task(tasks_by[n]) for n in names}
    t_profile = time.perf_counter() - started

    mixes = list(itertools.combinations(names, 4))
    started = time.perf_counter()
    for mix in mixes:
        model = AnalyticalModel(machine, [profiles[n] for n in mix])
        model.predict([[0], [1], [2], [3]])
    t_predict = time.perf_counter() - started

    refs_of = {n: profiles[n].refs for n in names}
    sweep_refs = sum(refs_of[n] for mix in mixes for n in mix)
    ranked = sorted(mixes, key=lambda m: sum(refs_of[n] for n in m))
    probes = [
        ranked[int(q * (len(ranked) - 1))] for q in PROBE_QUANTILES
    ]
    probe_refs = sum(refs_of[n] for mix in probes for n in mix)

    t_exact = t_sampled = 0.0
    for mix in probes:
        tasks = build_tasks(list(mix), instructions=instructions, seed=0)
        started = time.perf_counter()
        run_mix(machine, tasks)
        t_exact += time.perf_counter() - started
        tasks = build_tasks(list(mix), instructions=instructions, seed=0)
        started = time.perf_counter()
        sampled_simulation(machine, tasks)
        t_sampled += time.perf_counter() - started

    exact_sweep = t_exact / probe_refs * sweep_refs
    sampled_sweep = t_sampled / probe_refs * sweep_refs
    analytical_sweep = t_profile + t_predict
    return {
        "mixes": len(mixes),
        "sweep_refs": sweep_refs,
        "probe_refs": probe_refs,
        "profile_seconds": t_profile,
        "predict_seconds": t_predict,
        "exact_probe_seconds": t_exact,
        "sampled_probe_seconds": t_sampled,
        "exact_sweep_seconds": exact_sweep,
        "sampled_sweep_seconds": sampled_sweep,
        "analytical_sweep_seconds": analytical_sweep,
        "analytical_speedup": exact_sweep / analytical_sweep,
        "sampled_speedup": exact_sweep / sampled_sweep,
    }


def bench_estimate_speed(benchmark, report, full_scale):
    instructions = 8_000_000 if full_scale else 4_000_000
    m = run_once(benchmark, lambda: _measure(instructions))

    text = (
        f"estimate backend speed, figure-10 scale "
        f"(quadcore shared L2, 12 SPEC benchmarks @ {instructions} "
        f"instructions)\n"
        f"full sweep: {m['mixes']} four-task mixes, "
        f"{m['sweep_refs']} task references\n"
        f"\n  exact       probe {m['exact_probe_seconds']:6.2f} s "
        f"-> sweep {m['exact_sweep_seconds']:7.1f} s (extrapolated)"
        f"\n  sampled     probe {m['sampled_probe_seconds']:6.2f} s "
        f"-> sweep {m['sampled_sweep_seconds']:7.1f} s "
        f"({m['sampled_speedup']:.1f}x)"
        f"\n  analytical  profile {m['profile_seconds']:.2f} s + "
        f"{m['mixes']} predictions {m['predict_seconds']:.2f} s "
        f"= {m['analytical_sweep_seconds']:7.1f} s "
        f"({m['analytical_speedup']:.1f}x)"
    )
    report("estimate_speed", text)

    assert m["analytical_speedup"] >= MIN_SPEEDUP_ANALYTICAL, (
        f"analytical sweep speedup {m['analytical_speedup']:.1f}x "
        f"below {MIN_SPEEDUP_ANALYTICAL}x"
    )
    assert m["sampled_speedup"] >= MIN_SPEEDUP_SAMPLED, (
        f"sampled sweep speedup {m['sampled_speedup']:.1f}x "
        f"below {MIN_SPEEDUP_SAMPLED}x"
    )
