"""Cost of the fast-path backends at figure-10 sweep scale.

The paper's figure-10 evaluation covers all C(12,4) = 495 four-task SPEC
mixes. Exact and sampled simulation pay per mix; the analytical backend
profiles each of the 12 benchmarks once and prices every mix with
closed-form arithmetic, so its cost is one profiling pass plus 1–2 ms per
prediction — the asymmetry this bench pins down:

* **analytical**: profiling + all 495 predictions, measured in full;
* **exact / sampled**: measured on five probe mixes drawn from the
  reference-count quantiles of the 495 (cost scales with references
  simulated), then extrapolated to the sweep by total reference count.

Every cost is process CPU time divided by the host's slowdown, measured
while it runs with the fixed kernels of ``perfbench/speed.py`` (the
numpy kernel for the analytical backend, the interpreter kernel for the
two simulators): CPU seconds at the kernels' reference speed, comparable
across hosts and across changes to the other backends.

CI gates on those normalised sweep costs (the ``estimate-speed`` job):
the analytical sweep must stay within ``REPRO_EST_MAX_ANALYTICAL_NORM_S``
and the sampled sweep within ``REPRO_EST_MAX_SAMPLED_NORM_S``. The
defaults are the exact sweep's normalised cost before the compiled
exact-engine kernel (:data:`EXACT_SWEEP_NORM_S`) divided by 100 and by
10, the speedup floors this gate replaced. The speedups over the exact
engine are still printed, but an exact-engine speedup no longer moves the
gate.
"""

import importlib.util
import itertools
import os
from pathlib import Path

from conftest import run_once

from repro.estimate.analytical import AnalyticalModel
from repro.estimate.reuse import profile_task
from repro.estimate.sampled import sampled_simulation
from repro.perf.machine import quadcore_shared
from repro.perf.runner import build_tasks, run_mix
from repro.workloads.spec import spec_profile_names


def _load_speed_module():
    """``perfbench/speed.py``, imported from its file (it is no package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "speed.py"
    spec = importlib.util.spec_from_file_location("perfbench_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


speed = _load_speed_module()

#: The exact sweep's normalised cost (interpreter kernel) at the default
#: scale before the compiled exact-engine kernel: the lowest of three
#: runs (200.2, 206.4, 206.9 s) on a 2-vCPU Xeon VM. The bounds below are
#: what the old speedup floors implied against it.
EXACT_SWEEP_NORM_S = 200.2

#: Sweep-cost bounds in normalised CPU seconds (env-overridable: CI
#: relaxes them to the 60x / 7x floors it used to apply).
MAX_ANALYTICAL_NORM_S = float(
    os.environ.get(
        "REPRO_EST_MAX_ANALYTICAL_NORM_S", f"{EXACT_SWEEP_NORM_S / 100:.3f}"
    )
)
MAX_SAMPLED_NORM_S = float(
    os.environ.get(
        "REPRO_EST_MAX_SAMPLED_NORM_S", f"{EXACT_SWEEP_NORM_S / 10:.3f}"
    )
)

#: Reference-count quantiles the exact/sampled probe mixes come from.
PROBE_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)


class NormalisedClock:
    """The host's slowdown for *kind* work, and the CPU seconds of the
    sections measured under it.

    Inside the ``with`` block a :class:`speed.SpeedProbe` runs the
    kernel every ``speed.PERIOD_S`` seconds, in between slices of the
    work, exactly as perfbench measures a pass; the slowdown is the
    kernel's mean CPU time over its reference time, and section CPU
    times leave the kernel's own time out.
    """

    def __init__(self, kind):
        self.kind = kind
        self.cpu_s = 0.0
        self._probe = speed.SpeedProbe(kind)

    def __enter__(self):
        self._probe.__enter__()
        self._start = speed.mark()
        return self

    def __exit__(self, *exc):
        self._end = speed.mark()
        self._probe.__exit__(*exc)

    def section(self, fn):
        """Run *fn* as one measured section; returns its result."""
        started = speed.clocks()[1]
        try:
            return fn()
        finally:
            self.cpu_s += speed.clocks()[1] - started

    @property
    def slowdown(self):
        """Mean kernel CPU time over its reference time."""
        return (
            speed.kernel_cpu(self._start, self._end) / self._probe.reference_s
        )

    def normalised(self, seconds):
        """*seconds* of CPU time at the kernel's reference speed."""
        return seconds / self.slowdown


def _measure(instructions):
    """Time the three backends over the 495-mix figure-10 sweep."""
    machine = quadcore_shared()
    names = spec_profile_names()
    tasks_by = {
        n: build_tasks([n], instructions=instructions, seed=0)[0]
        for n in names
    }

    mixes = list(itertools.combinations(names, 4))

    def predict_all():
        for mix in mixes:
            model = AnalyticalModel(machine, [profiles[n] for n in mix])
            model.predict([[0], [1], [2], [3]])

    with NormalisedClock("numpy") as analytical:
        profiles = analytical.section(
            lambda: {n: profile_task(tasks_by[n]) for n in names}
        )
        t_profile = analytical.cpu_s
        analytical.section(predict_all)
    t_predict = analytical.cpu_s - t_profile

    refs_of = {n: profiles[n].refs for n in names}
    sweep_refs = sum(refs_of[n] for mix in mixes for n in mix)
    ranked = sorted(mixes, key=lambda m: sum(refs_of[n] for n in m))
    probes = [
        ranked[int(q * (len(ranked) - 1))] for q in PROBE_QUANTILES
    ]
    probe_refs = sum(refs_of[n] for mix in probes for n in mix)

    # The two simulators share one probe: their sections interleave, and
    # the sampled ones alone are too short for many kernel calls.
    with NormalisedClock("interpreter") as exact:
        sampled_s = 0.0
        for mix in probes:
            tasks = build_tasks(list(mix), instructions=instructions, seed=0)
            exact.section(lambda: run_mix(machine, tasks))
            tasks = build_tasks(list(mix), instructions=instructions, seed=0)
            before = exact.cpu_s
            exact.section(lambda: sampled_simulation(machine, tasks))
            sampled_s += exact.cpu_s - before
    exact_s = exact.cpu_s - sampled_s

    scale = sweep_refs / probe_refs
    exact_sweep = exact_s * scale
    sampled_sweep = sampled_s * scale
    analytical_sweep = t_profile + t_predict
    return {
        "mixes": len(mixes),
        "sweep_refs": sweep_refs,
        "probe_refs": probe_refs,
        "profile_seconds": t_profile,
        "predict_seconds": t_predict,
        "exact_probe_seconds": exact_s,
        "sampled_probe_seconds": sampled_s,
        "exact_sweep_seconds": exact_sweep,
        "sampled_sweep_seconds": sampled_sweep,
        "analytical_sweep_seconds": analytical_sweep,
        "exact_sweep_norm_seconds": exact.normalised(exact_sweep),
        "sampled_sweep_norm_seconds": exact.normalised(sampled_sweep),
        "analytical_sweep_norm_seconds": analytical.normalised(
            analytical_sweep
        ),
        "numpy_slowdown": analytical.slowdown,
        "interpreter_slowdown": exact.slowdown,
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
        f"CPU seconds; [normalised] = at the perfbench kernels' reference "
        f"speed (host slowdown: numpy {m['numpy_slowdown']:.2f}, "
        f"interpreter {m['interpreter_slowdown']:.2f})\n"
        f"\n  exact       probe {m['exact_probe_seconds']:6.2f} s "
        f"-> sweep {m['exact_sweep_seconds']:7.1f} s (extrapolated) "
        f"[{m['exact_sweep_norm_seconds']:.1f} s]"
        f"\n  sampled     probe {m['sampled_probe_seconds']:6.2f} s "
        f"-> sweep {m['sampled_sweep_seconds']:7.1f} s "
        f"[{m['sampled_sweep_norm_seconds']:.2f} s, bound "
        f"{MAX_SAMPLED_NORM_S:g} s] ({m['sampled_speedup']:.1f}x exact)"
        f"\n  analytical  profile {m['profile_seconds']:.2f} s + "
        f"{m['mixes']} predictions {m['predict_seconds']:.2f} s "
        f"= {m['analytical_sweep_seconds']:7.1f} s "
        f"[{m['analytical_sweep_norm_seconds']:.2f} s, bound "
        f"{MAX_ANALYTICAL_NORM_S:g} s] ({m['analytical_speedup']:.1f}x exact)"
    )
    report("estimate_speed", text)

    assert m["analytical_sweep_norm_seconds"] <= MAX_ANALYTICAL_NORM_S, (
        f"analytical sweep {m['analytical_sweep_norm_seconds']:.2f} "
        f"normalised CPU s above {MAX_ANALYTICAL_NORM_S} s"
    )
    assert m["sampled_sweep_norm_seconds"] <= MAX_SAMPLED_NORM_S, (
        f"sampled sweep {m['sampled_sweep_norm_seconds']:.2f} "
        f"normalised CPU s above {MAX_SAMPLED_NORM_S} s"
    )
