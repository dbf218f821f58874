"""The daemon's on-demand views against a materialised-view reference.

The daemon hands its mapper the registry itself, so an incremental step
builds only the views it reads. The reference here is the plain way to
drive the same decisions: a second registry and a second
:class:`~repro.service.mapper.IncrementalMapper` that receive a fresh
``registry.views()`` list on every event. The reference derives each
result's mapping and moved pids from the mapper's exported core groups
rather than from the decision, so the mapper's cached canonical mapping
and its incremental move bookkeeping are checked too. On generated
arrival traces — benign and adversarial — every result the daemon
returns, its final registry and mapper state, and its settle-versus-
oracle verdict must match the reference exactly, and every single view
must equal its entry in the full list bit for bit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary.arrivals import admission_storm_trace, flap_storm_trace
from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.state import capture_state, state_fingerprint
from repro.errors import ReproError
from repro.sched.affinity import canonical_mapping
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import SettleEvent, event_from_arrival
from repro.service.mapper import IncrementalMapper
from repro.service.registry import ProcessRegistry
from repro.workloads.arrivals import bursty_trace, poisson_trace

TRACES = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "flap_storm": flap_storm_trace,
    "admission_storm": admission_storm_trace,
}


class MaterialisedReference:
    """Registry + mapper driven with a fresh full view list per step."""

    def __init__(self, config):
        self.registry = ProcessRegistry(
            config.num_cores,
            capacity_lines=config.capacity_lines,
            ewma_alpha=config.ewma_alpha,
        )
        self.mapper = IncrementalMapper(
            WeightSortPolicy(), config.num_cores, tuning=config.tuning
        )

    def handle(self, arrival):
        kind, pid = arrival.kind, arrival.pid
        try:
            if kind == "admit":
                self.registry.admit(pid, arrival.name)
                step = self.mapper.admit
            elif kind == "retire":
                self.registry.retire(pid)
                step = self.mapper.retire
            else:
                self.registry.phase_change(pid, arrival.name)
                step = self.mapper.phase_change
            before = self.placement()
            decision = step(self.registry.views(), pid)
        except ReproError as exc:
            return {"ok": False, "kind": kind, "error": str(exc)}
        after = self.placement()
        mapping = canonical_mapping(self.mapper.export_state()["groups"])
        self.registry.apply_mapping(mapping)
        return {
            "ok": True,
            "kind": kind,
            "pid": pid,
            "action": decision.action,
            "mapping": str(mapping),
            "moved": sorted(
                p for p, core in after.items()
                if p in before and before[p] != core
            ),
            "drift": self.mapper.drift,
            "population": len(self.registry),
        }

    def placement(self):
        """pid -> core index in the mapper's working partition."""
        return {
            pid: core
            for core, group in enumerate(self.mapper.export_state()["groups"])
            for pid in group
        }

    def settle(self):
        views = self.registry.views()
        decision = self.mapper.settle(views)
        return str(decision.mapping), str(self.mapper.oracle(views))


def assert_single_views_match(registry):
    for view in registry.views():
        single = registry.view(view.tid)
        assert repr(single) == repr(view)
        assert single.symbiosis.tobytes() == view.symbiosis.tobytes()


def sub_state(state):
    """The registry and mapper part of a captured state."""
    return {"registry": state["registry"], "mapper": state["mapper"]}


@st.composite
def scenarios(draw):
    return (
        draw(st.sampled_from(sorted(TRACES))),
        draw(st.integers(min_value=0, max_value=2**16)),
        draw(st.integers(min_value=1, max_value=300)),
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=1, max_value=16)),
        draw(st.one_of(st.none(), st.integers(min_value=2, max_value=8))),
    )


@given(scenarios())
@settings(max_examples=8, deadline=None)
# One core, a full remap on every event, and an armed guard under a
# flap storm: the corners that are always run.
@example(("poisson", 0, 100, 1, 16, None))
@example(("bursty", 3, 100, 4, 1, None))
@example(("flap_storm", 7, 120, 2, 16, 2))
@example(("admission_storm", 11, 100, 3, 5, 4))
def test_daemon_matches_the_materialised_view_reference(scenario):
    kind, seed, length, cores, drift, flap = scenario
    config = ServiceConfig(
        num_cores=cores, drift_threshold=drift, flap_threshold=flap
    )
    daemon = SchedulerService(WeightSortPolicy(), config)
    reference = MaterialisedReference(config)
    for arrival in TRACES[kind](length, seed=seed):
        expected = reference.handle(arrival)
        assert daemon._handle(event_from_arrival(arrival)) == expected
        assert_single_views_match(daemon.registry)
    assert state_fingerprint(sub_state(capture_state(daemon))) == (
        state_fingerprint(
            {
                "registry": reference.registry.export_state(),
                "mapper": reference.mapper.export_state(),
            }
        )
    )
    settled = daemon._handle(SettleEvent())
    assert settled["mapping"] == settled["oracle"]
    assert (settled["mapping"], settled["oracle"]) == reference.settle()
