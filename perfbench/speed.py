"""Machine-speed probe: a fixed kernel timed in between slices of the work.

The benchmark runs on a few vCPUs of a shared host. The speed of those
vCPUs moves by tens of percent from one minute to the next, with the
turbo frequency the host grants and with what other tenants run on the
sibling hyper-threads. Process CPU time moves with it, so a plain CPU
time taken at one moment cannot be compared with one taken minutes
later.

While a :class:`SpeedProbe` runs, a wall-clock timer interrupts the
measured program every :data:`PERIOD_S` seconds and runs a kernel: a
fixed piece of work that never changes with the program. The probe
records how long each kernel call took. The benchmark then

- takes the probe's own time out of every reading (:func:`clocks`), and
- divides the work's CPU time by the host's slowdown over the same
  interval: the kernel's mean CPU time there over its reference time in
  :data:`KERNELS`. The result reads as CPU seconds at the speed where
  one kernel call takes its reference time.

A program change moves the work's time and not the kernel's, so it
shows in the scaled time; a change in the host's speed moves both.
Interpreter-bound and numpy-bound code slow down by different amounts
when the host does, so each workload names the kernel of its own kind
(:data:`KERNELS`): with it, the kernel's time followed the work's time
pass by pass (log-log slope 0.85 to 1.0, correlation 0.9) on a 2-vCPU
Xeon VM.

The timer is ``ITIMER_REAL`` on purpose. A CPU-time interval timer
(``ITIMER_PROF``/``ITIMER_VIRTUAL``) makes Linux serve the process CPU
clock from its per-tick accounting, and ``time.process_time`` then
advances in whole ticks.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Any, Callable, Dict, Optional, Tuple

import numpy
from scipy.special import gammainc

#: Seconds of wall time between two kernel calls.
PERIOD_S = 0.05

# The kernels' data is built once, from a fixed seed, and only read or
# overwritten in place afterwards, so no interpreter-kernel call
# allocates a list.
_rng = random.Random(2011)
_SETS, _WAYS = 4096, 4
_TABLE = 200_000
_REFS = 2_000
_STREAM = [
    int(_rng.paretovariate(0.7) * 7919) % (_SETS * _WAYS * 8)
    for _ in range(_REFS)
]
_PICKS = [_rng.randrange(_TABLE) for _ in range(_REFS)]
_TABLE_VALUES = list(range(1_000_000, 1_000_000 + _TABLE))
_EMPTY_TAGS = _TABLE_VALUES[: _SETS * _WAYS]
_TAGS = list(_EMPTY_TAGS)

_np_rng = numpy.random.default_rng(2011)
_GAPS = numpy.sort(_np_rng.pareto(0.8, 200_000) * 50.0)
_GAP_SUMS = numpy.cumsum(_GAPS)
_QUERIES = _np_rng.random(1536) * _GAPS[-1] * 0.01
_WEIGHTS = _np_rng.random(512)


def interpreter_kernel() -> Tuple[int, int]:
    """One fixed unit of interpreter work: 4-way set-associative tag
    look-ups with a hashed fill, plus scattered reads from a table of
    200,000 integers. Returns (hits, checksum), the same on every call."""
    tags = _TAGS
    tags[:] = _EMPTY_TAGS
    table = _TABLE_VALUES
    mask, ways = _SETS - 1, _WAYS
    hits = checksum = 0
    for block, pick in zip(_STREAM, _PICKS):
        base = (block & mask) * ways
        if (tags[base] == block or tags[base + 1] == block
                or tags[base + 2] == block or tags[base + 3] == block):
            hits += 1
        else:
            tags[base + (block >> 12) % ways] = block
        checksum ^= table[pick]
    return hits, checksum


def numpy_kernel() -> float:
    """One fixed unit of small-array numpy work, shaped like analytical
    pricing: binary searches into 200,000 sorted gaps, gathers, and the
    regularised incomplete gamma function over 512-entry vectors."""
    total = 0.0
    for _ in range(12):
        index = numpy.searchsorted(_GAPS, _QUERIES, side="left")
        footprint = (_GAP_SUMS[numpy.minimum(index, len(_GAP_SUMS) - 1)]
                     / (index + 1.0))
        volume = footprint.reshape(3, 512).sum(axis=0)
        total += float(gammainc(16.0, volume / 4096.0) @ _WEIGHTS)
    return total


#: Each kernel, and the CPU seconds of one call that define its
#: reference speed: about its median in between its workload's passes on
#: a 2-vCPU Xeon VM.
KERNELS: Dict[str, Tuple[Callable[[], Any], float]] = {
    "interpreter": (interpreter_kernel, 0.0017),
    "numpy": (numpy_kernel, 0.0022),
}


#: (wall, cpu, calls) spent in the kernel so far; replaced whole by the
#: timer handler, so a reader sees one consistent triple. The state is
#: module-wide because a signal handler is process-wide: one probe runs
#: at a time.
_spent: Tuple[float, float, int] = (0.0, 0.0, 0)


def clocks() -> Tuple[float, float]:
    """(wall, CPU) seconds with the probe's own time taken out."""
    while True:
        before = _spent
        wall, cpu = time.perf_counter(), time.process_time()
        if _spent is before:
            return wall - before[0], cpu - before[1]


def mark() -> Tuple[float, float, int]:
    """The probe's totals now; give two marks to :func:`kernel_cpu`."""
    return _spent


def kernel_cpu(start: Tuple[float, float, int],
               end: Tuple[float, float, int]) -> Optional[float]:
    """Mean CPU seconds of one kernel call between two marks, or ``None``
    when the probe made no call in between."""
    calls = end[2] - start[2]
    return (end[1] - start[1]) / calls if calls else None


_kernel: Callable[[], Any] = interpreter_kernel


def _tick(signum, frame) -> None:
    global _spent
    wall, cpu = time.perf_counter(), time.process_time()
    _kernel()
    _spent = (
        _spent[0] + time.perf_counter() - wall,
        _spent[1] + time.process_time() - cpu,
        _spent[2] + 1,
    )


class SpeedProbe:
    """Run the kernel *name* every :data:`PERIOD_S` seconds inside the
    block."""

    WARM_UP_CALLS = 20

    def __init__(self, name: str) -> None:
        self.kernel, self.reference_s = KERNELS[name]

    def __enter__(self) -> "SpeedProbe":
        global _kernel
        for _ in range(self.WARM_UP_CALLS):
            self.kernel()
        _kernel = self.kernel
        self._previous = signal.signal(signal.SIGALRM, _tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
