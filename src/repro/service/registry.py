"""The live process table with streaming CBF-signature estimates.

The daemon has no simulated cache attached — processes are *described*
(by their workload profile) rather than executed. The registry keeps
the same per-entity record the paper's syscall interface exposes
(``last_core``, ``occupancy``, ``symbiosis[N]``) but derives it from a
streaming footprint estimator: every scheduling event folds one more
deterministic footprint sample into an exponentially-weighted moving
average, mirroring how the hardware signature unit refreshes a CBF
reading on every context switch.

Samples are a pure function of ``(pid, profile, sample index)`` via
:func:`~repro.utils.rng.stable_seed`, so a replayed event trace yields
bit-identical occupancies — the property the incremental-vs-full
equivalence tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ServiceError, WorkloadError
from repro.sched.affinity import Mapping
from repro.sched.syscall import TaskView
from repro.service.tuning import DEFAULT_TUNING
from repro.utils.rng import stable_seed
from repro.workloads.base import WorkloadProfile
from repro.workloads.spec import SPEC_PROFILES

__all__ = ["DEFAULT_CAPACITY_LINES", "ProcessHandle", "ProcessRegistry"]

#: Default shared-cache capacity in 64-byte lines (the paper's 4 MB L2).
DEFAULT_CAPACITY_LINES = 4 * 1024 * 1024 // 64

#: Relative jitter band applied around a profile's hot-set footprint.
_JITTER = 0.2


def _sample_fraction(pid: int, profile: str, index: int) -> float:
    """A stable uniform draw in [0, 1) for one footprint sample.

    Derived from a digest rather than an RNG stream so the estimate for
    process *pid* does not depend on how many *other* processes sampled
    in between — the registry stays order-insensitive per process.
    """
    return (stable_seed("svc-footprint", pid, profile, index) % (1 << 24)) / (
        1 << 24
    )


class ProcessHandle:
    """One live process: identity, profile, core, footprint estimate."""

    __slots__ = ("pid", "profile", "core", "footprint", "samples_seen")

    def __init__(self, pid: int, profile: WorkloadProfile, core: int) -> None:
        self.pid = pid
        self.profile = profile
        self.core = core
        self.footprint = 0.0
        self.samples_seen = 0

    def __repr__(self) -> str:
        return (
            f"ProcessHandle(pid={self.pid}, profile={self.profile.name!r}, "
            f"core={self.core}, footprint={self.footprint:.1f})"
        )


class ProcessRegistry:
    """Tracks live processes and synthesises their signature contexts.

    Parameters
    ----------
    num_cores:
        Cores the mapper partitions over (defines the symbiosis vector
        length).
    capacity_lines:
        Shared-cache capacity in lines; footprints saturate here, and
        the fractional-inclusion overlap model normalises against it.
    ewma_alpha:
        Weight of the newest footprint sample in the moving average
        (1.0 = always trust the latest sample).
    """

    def __init__(
        self,
        num_cores: int,
        capacity_lines: int = DEFAULT_CAPACITY_LINES,
        ewma_alpha: float = DEFAULT_TUNING.ewma_alpha,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError(f"num_cores must be >= 1, got {num_cores}")
        if capacity_lines < 1:
            raise ConfigurationError(
                f"capacity_lines must be >= 1, got {capacity_lines}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        self.num_cores = num_cores
        self.capacity_lines = capacity_lines
        self.ewma_alpha = ewma_alpha
        self._handles: Dict[int, ProcessHandle] = {}

    # -- lifecycle -----------------------------------------------------

    def _resolve_profile(
        self, name: str, profile: Optional[WorkloadProfile]
    ) -> WorkloadProfile:
        if profile is not None:
            return profile
        try:
            return SPEC_PROFILES[name]
        except KeyError:
            raise WorkloadError(
                f"unknown workload profile {name!r}; see 'repro-cli profiles'"
            ) from None

    def _initial_core(self) -> int:
        """Least-loaded core by population (ties to the lowest index)."""
        counts = [0] * self.num_cores
        for handle in self._handles.values():
            counts[handle.core] += 1
        return counts.index(min(counts))

    def admit(
        self,
        pid: int,
        name: str,
        profile: Optional[WorkloadProfile] = None,
    ) -> ProcessHandle:
        """Register a new process and fold its first footprint sample.

        The process gets a provisional core (least populated) so its
        view is immediately usable by the mapper; the mapper's decision
        then moves it via :meth:`apply_mapping`.
        """
        if pid in self._handles:
            raise ServiceError(f"pid {pid} is already registered")
        resolved = self._resolve_profile(name, profile)
        handle = ProcessHandle(pid, resolved, self._initial_core())
        self._handles[pid] = handle
        self.observe(pid)
        return handle

    def retire(self, pid: int) -> ProcessHandle:
        """Remove a process; returns its final handle."""
        try:
            return self._handles.pop(pid)
        except KeyError:
            raise ServiceError(f"pid {pid} is not registered") from None

    def phase_change(
        self,
        pid: int,
        name: str,
        profile: Optional[WorkloadProfile] = None,
    ) -> ProcessHandle:
        """Switch a process to a new profile and restart its estimate.

        The old footprint average is discarded — a phase change means
        the old samples describe memory behaviour that no longer
        exists.
        """
        handle = self._get(pid)
        handle.profile = self._resolve_profile(name, profile)
        handle.footprint = 0.0
        self.observe(pid)
        return handle

    def _get(self, pid: int) -> ProcessHandle:
        try:
            return self._handles[pid]
        except KeyError:
            raise ServiceError(f"pid {pid} is not registered") from None

    # -- streaming estimation ------------------------------------------

    def observe(self, pid: int) -> float:
        """Fold one footprint sample into the process's EWMA estimate.

        The sample jitters around the profile's hot-set size (capped at
        cache capacity), emulating the run-to-run variation of a real
        CBF reading; the EWMA smooths it exactly like the monitor's
        periodic re-sampling does in the batch pipeline.
        """
        handle = self._get(pid)
        base = float(min(handle.profile.hot_set_blocks, self.capacity_lines))
        fraction = _sample_fraction(
            handle.pid, handle.profile.name, handle.samples_seen
        )
        sample = min(
            float(self.capacity_lines),
            base * (1.0 - _JITTER + 2.0 * _JITTER * fraction),
        )
        if handle.samples_seen == 0 or handle.footprint == 0.0:
            handle.footprint = sample
        else:
            alpha = self.ewma_alpha
            handle.footprint = (1.0 - alpha) * handle.footprint + alpha * sample
        handle.samples_seen += 1
        return handle.footprint

    # -- mapper-facing views -------------------------------------------

    def apply_mapping(self, mapping: Mapping) -> int:
        """Move every mapped process to its decided core; returns moves.

        Pids in the registry but absent from the mapping keep their
        current core (the mapper always maps the full population, so
        this only matters transiently during tests).
        """
        moved = 0
        for core, group in enumerate(mapping.groups):
            for pid in group:
                handle = self._handles.get(pid)
                if handle is not None and handle.core != core:
                    handle.core = core
                    moved += 1
        return moved

    def views(self) -> List[TaskView]:
        """Signature-context snapshots for every live process, by pid.

        Occupancy is the streaming footprint estimate; the symbiosis
        entry against core ``c`` uses the paper's XOR-population form
        ``|P| + |C_c| - 2·|P ∩ C_c|`` with a fractional-inclusion
        overlap model (co-resident footprints overlap in proportion to
        how much of the cache the other core's residents fill).
        """
        handles = self._by_pid()
        core_fill = self._core_fill(handles)
        return [self._view(handle, core_fill) for handle in handles]

    def view(self, pid: int) -> TaskView:
        """The :meth:`views` entry of *pid*, built without the others.

        Float-identical to that entry: both go through one builder over
        the same per-core fill (raises ``ServiceError`` if unknown).
        """
        handle = self._get(pid)
        return self._view(handle, self._core_fill(self._by_pid()))

    def _by_pid(self) -> List[ProcessHandle]:
        return [self._handles[pid] for pid in sorted(self._handles)]

    def _core_fill(self, handles: List[ProcessHandle]) -> List[float]:
        """Summed footprint per core, added in the order of *handles*
        (pid order): float addition does not commute, so a running sum
        kept across admits and retires would round differently."""
        core_fill = [0.0] * self.num_cores
        for handle in handles:
            core_fill[handle.core] += handle.footprint
        return core_fill

    def _view(
        self, handle: ProcessHandle, core_fill: List[float]
    ) -> TaskView:
        """One process's signature context against every core."""
        capacity = float(self.capacity_lines)
        occ = handle.footprint
        symbiosis = []
        for core, others in enumerate(core_fill):
            if core == handle.core:
                others -= occ
            others = min(max(others, 0.0), capacity)
            overlap = occ * others / capacity
            symbiosis.append(occ + others - 2.0 * overlap)
        return TaskView(
            tid=handle.pid,
            name=handle.profile.name,
            process_id=handle.pid,
            last_core=handle.core,
            occupancy=occ,
            symbiosis=np.array(symbiosis, dtype=np.float64),
            valid=True,
            samples_seen=handle.samples_seen,
        )

    # -- snapshot support ----------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """JSON-native registry contents for durable snapshots.

        Footprints are exported as raw floats — JSON's shortest
        round-trip ``repr`` restores them bit-identical, which the
        recovery-equivalence fingerprint depends on.
        """
        return {
            "processes": {
                str(pid): {
                    "profile": h.profile.name,
                    "core": h.core,
                    "footprint": h.footprint,
                    "samples_seen": h.samples_seen,
                }
                for pid, h in sorted(self._handles.items())
            }
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Replace the process table from :meth:`export_state` output.

        Profiles are re-resolved by name, so only named (catalogue)
        profiles survive a snapshot round-trip — which is all the wire
        protocol can admit in the first place. A malformed table raises
        ``ServiceError`` and leaves the registry as it was.
        """
        handles: Dict[int, ProcessHandle] = {}
        processes = state.get("processes", {})
        if not isinstance(processes, dict):
            raise ServiceError(
                "registry snapshot 'processes' must be an object, got "
                f"{type(processes).__name__}"
            )
        for pid_text, entry in processes.items():
            try:
                pid = int(pid_text)
                profile = self._resolve_profile(entry["profile"], None)
                handle = ProcessHandle(pid, profile, int(entry["core"]))
                handle.footprint = float(entry["footprint"])
                handle.samples_seen = int(entry["samples_seen"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    f"registry snapshot entry {pid_text!r} is malformed: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
            handles[pid] = handle
        self._handles = handles

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        """Number of live processes."""
        return len(self._handles)

    def __contains__(self, pid: int) -> bool:
        """Whether *pid* is currently registered."""
        return pid in self._handles

    def live_pids(self) -> List[int]:
        """Sorted pids of every live process."""
        return sorted(self._handles)

    def handle(self, pid: int) -> ProcessHandle:
        """The handle for *pid* (raises ``ServiceError`` if unknown)."""
        return self._get(pid)

    def status(self) -> Dict[str, object]:
        """JSON-native summary used by the ``status`` endpoint."""
        return {
            "num_cores": self.num_cores,
            "population": len(self._handles),
            "capacity_lines": self.capacity_lines,
            "processes": {
                str(pid): {
                    "profile": h.profile.name,
                    "core": h.core,
                    "footprint_lines": round(h.footprint, 1),
                    "samples_seen": h.samples_seen,
                }
                for pid, h in sorted(self._handles.items())
            },
        }
