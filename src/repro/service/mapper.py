"""Incremental core-mapping over the batch allocation policies.

A full remap calls an :class:`~repro.alloc.base.AllocationPolicy` over
the whole population — optimal, but at 14 processes the exhaustive
min-cut already costs milliseconds, far too much to pay on *every*
admission under load. :class:`IncrementalMapper` keeps per-event work
bounded (cf. the representative-sampling argument in PAPERS.md): single
arrivals and departures repair only the affected partition, and the
policy is re-run in full only on phase changes or once accumulated
*drift* (count of incremental repairs since the last full remap)
crosses a threshold.

Determinism contract
--------------------
The interference policies deliberately vary their tie-break seed per
invocation (the phase-1 majority vote needs tied optima explored). An
online mapper must not: two services replaying the same event trace
would diverge purely on invocation counts, and a random tie-break per
event causes gratuitous migration churn. :class:`StablePolicy`
therefore pins the wrapped policy's invocation counter for the duration
of each ``allocate`` call, making it a pure function of the task
snapshot — which is exactly what lets the pinned equivalence test
compare the incremental mapper against a full-remap oracle.

Views on demand
---------------
Each step reads task views from a :class:`ViewSource` (the daemon
passes its :class:`~repro.service.registry.ProcessRegistry`): an
incremental step builds only the views it reads — the placed pid on
admit and damped phase change, the donor group's members when a
retire rebalances — while full remaps, :meth:`IncrementalMapper.settle`
and :meth:`IncrementalMapper.oracle` take the whole list. A plain
sequence of views is served as a snapshot by :class:`ViewList`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.alloc.base import AllocationPolicy
from repro.core.metrics import interference_from_symbiosis
from repro.errors import ConfigurationError, ServiceError
from repro.sched.affinity import Mapping, canonical_mapping
from repro.sched.syscall import TaskView
from repro.service.tuning import DEFAULT_TUNING, ServiceTuning

__all__ = [
    "StablePolicy", "MapDecision", "IncrementalMapper", "ViewList", "ViewSource",
]


class ViewSource(Protocol):
    """Where a mapper step reads its task views from."""

    def view(self, pid: int) -> TaskView:
        """The view of one pid; ``ServiceError`` when there is none."""
        ...

    def views(self) -> Sequence[TaskView]:
        """Every view, ordered by pid."""
        ...


class ViewList:
    """A materialised snapshot of task views, served as a
    :class:`ViewSource` (the first view of a pid wins)."""

    def __init__(self, views: Sequence[TaskView]) -> None:
        self._views = views

    def view(self, pid: int) -> TaskView:
        """The view of *pid* in the snapshot."""
        for view in self._views:
            if view.tid == pid:
                return view
        raise ServiceError(f"pid {pid} missing from task views")

    def views(self) -> Sequence[TaskView]:
        """The snapshot itself."""
        return self._views


#: What every mapper step accepts: a view source or a snapshot list.
TaskViews = Union[ViewSource, Sequence[TaskView]]


def _source(views: TaskViews) -> ViewSource:
    if isinstance(views, SequenceABC):
        return ViewList(views)
    return views


class StablePolicy:
    """Snapshot-pure adapter over a batch allocation policy.

    Pins the wrapped policy's per-invocation tie-break counter (when it
    has one) so that ``allocate`` becomes a pure function of
    ``(tasks, num_cores)`` — identical snapshots always yield identical
    mappings, regardless of how many times the policy ran before.
    """

    def __init__(self, policy: AllocationPolicy) -> None:
        self.policy = policy
        self.name = f"stable({policy.name})"

    def allocate(self, tasks: Sequence[TaskView], num_cores: int) -> Mapping:
        """Run the wrapped policy with its invocation counter pinned."""
        saved = getattr(self.policy, "_invocations", None)
        if saved is not None:
            self.policy._invocations = 0
        try:
            return self.policy.allocate(tasks, num_cores)
        finally:
            if saved is not None:
                self.policy._invocations = saved


@dataclass(frozen=True)
class MapDecision:
    """The outcome of one mapper step.

    ``action`` records which path produced the mapping (``full`` or
    ``incremental``); ``moved`` the pids whose core changed; ``drift``
    the repairs accumulated since the last full remap, after this step.
    """

    action: str
    mapping: Mapping
    moved: Tuple[int, ...]
    drift: int


class IncrementalMapper:
    """Single-event partition repair with drift-bounded full remaps.

    Parameters
    ----------
    policy:
        Any batch allocation policy; it is wrapped in
        :class:`StablePolicy` and consulted only on full remaps.
    num_cores:
        Cores to partition over.
    drift_threshold:
        Incremental repairs tolerated before the next event forces a
        full remap (1 = remap on every event, i.e. no incrementality).
        Defaults to ``tuning.drift_threshold``; passing it explicitly
        overrides the tuning value (legacy call sites).
    tuning:
        Shared :class:`~repro.service.tuning.ServiceTuning`; supplies the
        drift threshold and the flap-guard knobs. With the default tuning
        the guard is disarmed and behaviour is byte-identical to the
        pre-guard mapper.

    Flap guard
    ----------
    A phase change normally forces a full remap (the estimate is
    invalidated). An adversary exploiting that — flapping phases faster
    than the registry's EWMA window — turns every event into a
    policy-rerun remap storm. With ``tuning.flap_threshold`` armed, the
    mapper counts each pid's phase changes over a sliding
    ``flap_window`` of events; a pid crossing the threshold is marked
    *flapping* and its phase changes are damped to an incremental
    re-placement (``action='damped'``) until its rate falls to half the
    threshold (hysteresis). Damped steps still accrue drift, so the
    drift threshold becomes the full-remap rate limit: at most one full
    remap per ``drift_threshold`` events, no matter how fast the
    adversary flaps.
    """

    def __init__(
        self,
        policy: AllocationPolicy,
        num_cores: int,
        drift_threshold: Optional[int] = None,
        *,
        tuning: Optional[ServiceTuning] = None,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError(f"num_cores must be >= 1, got {num_cores}")
        self.tuning = tuning if tuning is not None else DEFAULT_TUNING
        if drift_threshold is None:
            drift_threshold = self.tuning.drift_threshold
        if drift_threshold < 1:
            raise ConfigurationError(
                f"drift_threshold must be >= 1, got {drift_threshold}"
            )
        self.policy = StablePolicy(policy)
        self.num_cores = num_cores
        self.drift_threshold = drift_threshold
        self.drift = 0
        self.full_remaps = 0
        self.incremental_updates = 0
        self.damped_updates = 0
        #: Working partition, indexed by core (NOT canonicalised — core
        #: identity must survive incremental repair steps). Each group
        #: stays sorted; every change clears :attr:`_mapping`.
        self._groups: List[List[int]] = [[] for _ in range(num_cores)]
        #: Canonical form of ``_groups``, built once per change.
        self._mapping: Optional[Mapping] = None
        # Flap-guard state: only populated when the guard is armed.
        self._event_index = 0
        self._flap_history: Dict[int, List[int]] = {}
        self._flapping: set = set()

    # -- queries -------------------------------------------------------

    @property
    def mapping(self) -> Mapping:
        """The current mapping in canonical (core-permutation) form."""
        if self._mapping is None:
            self._mapping = canonical_mapping(self._groups)
        return self._mapping

    def oracle(self, views: TaskViews) -> Mapping:
        """What a from-scratch full remap would decide for *views*.

        Pure query: consults the stabilised policy without touching the
        mapper's own partition or drift state. The equivalence tests
        compare :meth:`settle` output against this.
        """
        snapshot = _source(views).views()
        if not snapshot:
            return canonical_mapping([[] for _ in range(self.num_cores)])
        return self.policy.allocate(snapshot, self.num_cores).canonical()

    def _cores_of(self) -> Dict[int, int]:
        placement = {}
        for core, group in enumerate(self._groups):
            for pid in group:
                placement[pid] = core
        return placement

    def _core_index(self, pid: int) -> Optional[int]:
        for core, group in enumerate(self._groups):
            if pid in group:
                return core
        return None

    def _decide(self, action: str, moved: Tuple[int, ...]) -> MapDecision:
        return MapDecision(
            action=action, mapping=self.mapping, moved=moved, drift=self.drift
        )

    # -- full remap ----------------------------------------------------

    def _full(self, source: ViewSource, before: Dict[int, int]) -> MapDecision:
        """Re-run the policy over every view; *before* is the placement
        the step started from, against which moves are counted."""
        self.full_remaps += 1
        self.drift = 0
        views = source.views()
        if not views:
            self._groups = [[] for _ in range(self.num_cores)]
            self._mapping = None
        else:
            decided = self.policy.allocate(views, self.num_cores).canonical()
            self._groups = [sorted(group) for group in decided.groups]
            # Sorted lists of canonical groups canonicalise back to
            # ``decided`` itself, so it is already this step's mapping.
            self._mapping = decided
        moved = tuple(
            sorted(
                pid
                for pid, core in self._cores_of().items()
                if before.get(pid) is not None and before[pid] != core
            )
        )
        return self._decide("full", moved)

    # -- flap guard ----------------------------------------------------

    @property
    def flap_armed(self) -> bool:
        """Whether phase-change flap detection is active."""
        return self.tuning.flap_threshold is not None

    @property
    def flapping_pids(self) -> Tuple[int, ...]:
        """Pids currently damped by the flap guard (sorted)."""
        return tuple(sorted(self._flapping))

    def _tick(self) -> None:
        """Advance the guard's event clock (armed mappers only)."""
        if self.flap_armed:
            self._event_index += 1

    def _note_phase_change(self, pid: int) -> bool:
        """Record one phase change of *pid*; True when it should be damped.

        Hysteresis: a pid starts being damped at ``flap_threshold``
        changes within the sliding window and stops only once its rate
        decays to half that, so a borderline process does not oscillate
        between damped and full-remap treatment.
        """
        window = self.tuning.flap_window
        threshold = self.tuning.flap_threshold
        assert threshold is not None
        history = self._flap_history.setdefault(pid, [])
        history.append(self._event_index)
        cutoff = self._event_index - window
        while history and history[0] <= cutoff:
            history.pop(0)
        count = len(history)
        if pid in self._flapping:
            if count <= threshold // 2:
                self._flapping.discard(pid)
        elif count >= threshold:
            self._flapping.add(pid)
        return pid in self._flapping

    def _forget(self, pid: int) -> None:
        """Drop a departed pid from the guard's books."""
        self._flap_history.pop(pid, None)
        self._flapping.discard(pid)

    # -- incremental repairs -------------------------------------------

    def _placement_cost(self, view: TaskView, core: int) -> float:
        """Occupancy-weighted interference of placing *view* on *core*."""
        return view.occupancy * interference_from_symbiosis(
            view.symbiosis[core]
        )

    def _rebalance(self, source: ViewSource) -> Tuple[int, ...]:
        """Restore near-balanced group sizes after a departure.

        Migrates, one task at a time, from the largest group to the
        smallest while their sizes differ by more than one — the same
        balance invariant the batch policies produce. The migrant is
        the donor task suffering the most on its current core (highest
        occupancy-weighted interference), ties broken by pid. Only the
        donor's members' views are read. Returns the migrants that
        ended on another core than they started on, sorted.
        """
        origin: Dict[int, int] = {}
        final: Dict[int, int] = {}
        while True:
            sizes = [len(g) for g in self._groups]
            donor = sizes.index(max(sizes))  # largest, ties to the lowest core
            receiver = sizes.index(min(sizes))  # smallest, likewise
            if sizes[donor] - sizes[receiver] <= 1:
                return tuple(
                    sorted(pid for pid in origin if final[pid] != origin[pid])
                )
            migrant = max(
                self._groups[donor],
                key=lambda pid: (
                    self._placement_cost(source.view(pid), donor),
                    -pid,
                ),
            )
            origin.setdefault(migrant, donor)
            final[migrant] = receiver
            self._groups[donor].remove(migrant)
            self._groups[receiver].append(migrant)
            self._groups[receiver].sort()
            self._mapping = None

    def admit(self, views: TaskViews, pid: int) -> MapDecision:
        """Place one arrival; *views* is the post-admission state.

        The arrival goes to the least-interfering of the smallest
        groups (preserving balance); everything else stays put, so an
        incremental admit moves no one. Falls back to a full remap when
        drift would cross the threshold.
        """
        source = _source(views)
        self._tick()
        if self.drift + 1 >= self.drift_threshold:
            return self._full(source, self._cores_of())
        self._place(source.view(pid), pid)
        self.drift += 1
        self.incremental_updates += 1
        return self._decide("incremental", ())

    def _place(self, view: TaskView, pid: int) -> int:
        """Add *pid* to the least-interfering of the smallest groups;
        returns the chosen core."""
        sizes = [len(g) for g in self._groups]
        smallest = min(sizes)
        candidates = [c for c in range(self.num_cores) if sizes[c] == smallest]
        core = min(
            candidates, key=lambda c: (self._placement_cost(view, c), c)
        )
        self._groups[core].append(pid)
        self._groups[core].sort()
        self._mapping = None
        return core

    def _remove(self, pid: int) -> Optional[int]:
        """Take *pid* out of its group; returns its core (None if absent)."""
        core = self._core_index(pid)
        if core is not None:
            self._groups[core].remove(pid)
            self._mapping = None
        return core

    def retire(self, views: TaskViews, pid: int) -> MapDecision:
        """Remove one departure; *views* is the post-removal state."""
        source = _source(views)
        self._tick()
        self._forget(pid)
        if self.drift + 1 >= self.drift_threshold:
            before = self._cores_of()
            self._remove(pid)
            return self._full(source, before)
        if self._remove(pid) is None:
            raise ServiceError(f"pid {pid} is not in the current mapping")
        moved = self._rebalance(source)
        self.drift += 1
        self.incremental_updates += 1
        return self._decide("incremental", moved)

    def phase_change(self, views: TaskViews, pid: int) -> MapDecision:
        """A phase change invalidates the estimate: remap fully — unless
        the flap guard has marked *pid* as flapping, in which case the
        change is damped to an incremental re-placement (and drift still
        accrues, so the drift threshold rate-limits full remaps)."""
        source = _source(views)
        core = self._core_index(pid)
        if core is None:
            raise ServiceError(f"pid {pid} is not in the current mapping")
        self._tick()
        if self.flap_armed and self._note_phase_change(pid):
            if self.drift + 1 >= self.drift_threshold:
                return self._full(source, self._cores_of())
            self._remove(pid)
            placed = self._place(source.view(pid), pid)
            self.drift += 1
            self.damped_updates += 1
            return self._decide("damped", (pid,) if placed != core else ())
        return self._full(source, self._cores_of())

    # -- snapshot support ----------------------------------------------

    def export_state(self) -> dict:
        """JSON-native mapper state for durable snapshots.

        Groups are exported in core-index order (NOT canonicalised):
        core identity is working state the incremental repair paths
        depend on, so it must survive a snapshot round-trip.
        """
        state = {
            "drift": self.drift,
            "full_remaps": self.full_remaps,
            "incremental_updates": self.incremental_updates,
            "groups": [list(group) for group in self._groups],
        }
        if self.flap_armed:
            # Guard state is exported only when armed: a disarmed mapper's
            # snapshot stays byte-identical to the pre-guard format.
            state["damped_updates"] = self.damped_updates
            state["flap"] = {
                "event_index": self._event_index,
                "history": {
                    str(pid): list(events)
                    for pid, events in sorted(self._flap_history.items())
                    if events
                },
                "flapping": sorted(self._flapping),
            }
        return state

    def restore(self, state: dict) -> None:
        """Replace partition and counters from :meth:`export_state` output."""
        groups = state["groups"]
        if len(groups) != self.num_cores:
            raise ServiceError(
                f"snapshot has {len(groups)} groups but mapper partitions "
                f"{self.num_cores} cores"
            )
        self._groups = [sorted(int(pid) for pid in group) for group in groups]
        self._mapping = None
        self.drift = int(state["drift"])
        self.full_remaps = int(state["full_remaps"])
        self.incremental_updates = int(state["incremental_updates"])
        self.damped_updates = int(state.get("damped_updates", 0))
        flap = state.get("flap")
        if flap is not None and self.flap_armed:
            self._event_index = int(flap["event_index"])
            self._flap_history = {
                int(pid): [int(e) for e in events]
                for pid, events in flap["history"].items()
            }
            self._flapping = {int(pid) for pid in flap["flapping"]}
        else:
            self._event_index = 0
            self._flap_history = {}
            self._flapping = set()

    def settle(self, views: TaskViews) -> MapDecision:
        """Clear accumulated drift with an unconditional full remap.

        Replays call this once at trace end; because the stabilised
        policy is a pure function of the snapshot, the settled mapping
        is byte-identical to :meth:`oracle` on the same views — the
        trace-end equivalence contract the bench asserts.
        """
        return self._full(_source(views), self._cores_of())
