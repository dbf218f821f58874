"""Compiled kernels for the exact engine.

``kernels.c`` holds three C functions, compiled with cffi's API mode:

* ``lru_batch`` — :class:`~repro.cache.cache.SetAssociativeCache`'s LRU
  batch over its set-major tag, stamp and owner arrays;
* ``cbf_events`` — :meth:`~repro.core.signature.SignatureUnit.record_events`'
  fills-then-evictions update of an XOR-fold k = 1 unit;
* ``run_segment`` — :meth:`~repro.perf.simulator.MulticoreSimulator.run`'s
  loop from one scheduler event to the next (:mod:`repro.perf.segment`):
  core selection, both kernels above and the timing update, batch after
  batch.

Each reproduces the Python code it replaces operation by operation;
that code stays as the reference path the differential tests compare
against, and runs whenever the module is unavailable.

Importing this package builds nothing and writes nothing. The first
:func:`load` of a process (the first cache or signature unit it
constructs) looks for a module built from the current source under
``_build/``. When there is none, it runs ``python -m repro.native
build`` as a child process and waits for it; the child's compiler time
and memory stay out of the calling process. When that fails (no
compiler, no cffi, a timeout), the process runs the numpy path and logs
one warning naming the reason. :func:`describe` reports which path ran.

A build child that exits with an error leaves its reason under
``_build/``, keyed by the module name and the value of ``CC``, so later
processes with the same key fall back at once instead of compiling
again; their warning gives the recorded reason. ``python -m repro.native
build`` always compiles, and a successful build removes the record of
its ``CC``. A timeout, or a child that could not start or was killed,
records nothing.
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = [
    "BUILD_DIR",
    "CDEF",
    "COMPILE_ARGS",
    "SOURCE",
    "Kernels",
    "describe",
    "failure_record",
    "load",
    "module_name",
    "module_path",
]

_log = logging.getLogger(__name__)

_PACKAGE_DIR = Path(__file__).resolve().parent
#: The C source of the kernels.
SOURCE = _PACKAGE_DIR / "kernels.c"
#: Where built modules are published (ignored by git).
BUILD_DIR = _PACKAGE_DIR / "_build"
#: How long a process waits for the build child before using numpy.
BUILD_TIMEOUT_S = 300.0

#: The compiler flags: ``-O2`` with no ``-march``, so the module runs on
#: any host of the same architecture, and no contraction of ``a * b + c``
#: into one fused multiply-add, which rounds differently from Python.
COMPILE_ARGS = ("-O2", "-ffp-contract=off")

#: The C declarations cffi binds (their definitions are in :data:`SOURCE`).
CDEF = """
int64_t lru_batch(int64_t *tags, int64_t *stamps, int64_t *owner,
                  int64_t set_mask, int64_t ways, int64_t clock,
                  int64_t core, const int64_t *blocks, int64_t n,
                  int64_t *out, int64_t *counts);
void cbf_events(int64_t *counters, uint8_t *core_bits, int64_t entries,
                int64_t cores, int64_t core, int64_t counter_max,
                int64_t index_bits, int64_t fold_bits,
                const int64_t *fills, int64_t num_fills,
                const int64_t *evictions, int64_t num_evictions,
                int64_t *clamps);
typedef struct {
    int64_t runnable;
    const int64_t *ahead;
    int64_t ahead_len;
    int64_t ahead_pos;
    int64_t base_block;
    int64_t remaining;
    double accesses_per_kinstr, mlp;
    double user_cycles;
    double quantum_used;
} segment_core;
typedef struct {
    int64_t *tags, *stamps, *owner, set_mask, ways;
    int64_t clock;
    int64_t *hits, *misses;
    int64_t *counters;
    uint8_t *core_bits;
    int64_t entries, counter_max, index_bits, fold_bits;
    double cpi_base, l1_hit_cycles, l2_hit_cycles, mem_cycles, queue_coeff,
        per_access_cycles, intensity_ema, timeslice_cycles;
    int64_t batch;
    double next_invocation, max_wall_cycles, min_wall_cycles;
    int64_t all_done;
    int64_t *blocks, *events;
    int64_t batches, fills, evictions, saturated, underflowed;
    int64_t *batch_misses, misses_len, misses_capacity;
    int64_t *phase_ns;
} segment_state;
int64_t run_segment(segment_state *s, segment_core *cores, int64_t num_cores,
                    double *core_time, double *intensity);
"""


class Kernels:
    """A loaded kernel module: cffi's ``ffi`` and ``lib``, and its file."""

    __slots__ = ("ffi", "lib", "path")

    def __init__(self, ffi: Any, lib: Any, path: Path) -> None:
        self.ffi = ffi
        self.lib = lib
        self.path = path


#: The first load's outcome: the kernels, or ``None`` and the reason.
_outcome: Optional[Tuple[Optional[Kernels], str]] = None
_lock = threading.Lock()


def module_name() -> str:
    """The module's import name, ``_repro_kernels_<build>_<env>``: a hash
    of the C source, the declarations and the compiler flags, then one of
    the cffi version and the extension suffix, the environment a build
    prunes (raises ``ImportError`` without cffi)."""
    import _cffi_backend

    build = _digest(
        SOURCE.read_bytes(),
        CDEF.encode("ascii"),
        " ".join(COMPILE_ARGS).encode("ascii"),
    )
    env = _digest(
        str(_cffi_backend.__version__).encode("ascii"),
        _ext_suffix().encode("ascii"),
    )
    return f"_repro_kernels_{build[:16]}_{env[:8]}"


def _digest(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\0")
    return digest.hexdigest()


def module_path(name: Optional[str] = None) -> Path:
    """Where the module built from the current source (or named *name*)
    lives."""
    return BUILD_DIR / ((name or module_name()) + _ext_suffix())


def failure_record(name: str) -> Path:
    """Where a failed build of module *name* under this process's ``CC``
    leaves its reason."""
    cc = hashlib.sha256(os.environ.get("CC", "").encode("utf-8"))
    return BUILD_DIR / f"{name}-{cc.hexdigest()[:16]}.failed"


def load() -> Optional[Kernels]:
    """The compiled kernels, built on first use; ``None`` selects numpy.

    Only the first call of a process does any work; later calls return
    its outcome.
    """
    global _outcome
    outcome = _outcome
    if outcome is None:
        with _lock:
            if _outcome is None:
                _outcome = _first_load()
            outcome = _outcome
    return outcome[0]


def describe() -> str:
    """Which engine this process runs: the kernel and its file, numpy and
    the reason, or that nothing has loaded it yet."""
    outcome = _outcome
    if outcome is None:
        return "not loaded yet (no cache or signature unit constructed)"
    kernels, reason = outcome
    if kernels is not None:
        return f"compiled kernel {kernels.path}"
    return f"numpy ({reason})"


def _ext_suffix() -> str:
    import sysconfig  # only where a module is looked for: imports stay lean

    return str(sysconfig.get_config_var("EXT_SUFFIX") or ".so")


def _first_load() -> Tuple[Optional[Kernels], str]:
    try:
        name = module_name()
    except ImportError:
        return _fall_back("cffi is not installed")
    path = module_path(name)
    if not path.exists():
        record = failure_record(name)
        try:
            recorded = record.read_text(encoding="utf-8", errors="replace")
        except OSError:  # no record: build
            failure = _build_in_child(record)
            if failure:
                return _fall_back(failure)
        else:
            return _fall_back(
                f"{recorded.strip()}; recorded in {record.name}, "
                "`python -m repro.native build` retries"
            )
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:
            return _fall_back(f"{path} is not a loadable module")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError) as exc:
        return _fall_back(f"cannot load {path}: {exc}")
    return Kernels(module.ffi, module.lib, path), ""


def _build_in_child(record: Path) -> str:
    """Run the build command in a child process; '' or why it failed.

    A child that exits with an error status leaves the reason in
    *record* (best effort).
    """
    env = dict(os.environ)
    # The child imports this copy of the package, wherever it came from.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_PACKAGE_DIR.parent.parent), env.get("PYTHONPATH")) if p
    )
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro.native", "build"],
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"the build timed out after {BUILD_TIMEOUT_S:g} s"
    except OSError as exc:
        return f"the build could not start: {exc}"
    if done.returncode == 0:
        return ""
    lines = (done.stderr or done.stdout).strip().splitlines()
    reason = lines[-1] if lines else f"the build exited with {done.returncode}"
    if done.returncode > 0:  # a signal (say, out of memory) may not recur
        from repro.fileio import publish  # only on this path: imports stay lean

        try:
            publish(record, reason.encode("utf-8"))
        except OSError:
            pass  # a read-only install: later processes build again
    return reason


def _fall_back(reason: str) -> Tuple[None, str]:
    _log.warning(
        "compiled exact-engine kernels unavailable (%s); running the numpy path",
        reason,
    )
    return None, reason
