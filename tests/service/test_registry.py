"""Process registry: lifecycle, streaming estimates, mapper views."""

import pytest

from repro.errors import ConfigurationError, ServiceError, WorkloadError
from repro.service.registry import DEFAULT_CAPACITY_LINES, ProcessRegistry
from repro.sched.affinity import canonical_mapping


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        ProcessRegistry(0)
    with pytest.raises(ConfigurationError):
        ProcessRegistry(2, capacity_lines=0)
    with pytest.raises(ConfigurationError):
        ProcessRegistry(2, ewma_alpha=0.0)
    with pytest.raises(ConfigurationError):
        ProcessRegistry(2, ewma_alpha=1.5)


def test_admit_retire_lifecycle():
    reg = ProcessRegistry(2)
    handle = reg.admit(1, "mcf")
    assert handle.pid == 1
    assert handle.profile.name == "mcf"
    assert handle.samples_seen == 1
    assert handle.footprint > 0.0
    assert 1 in reg
    assert len(reg) == 1
    retired = reg.retire(1)
    assert retired is handle
    assert 1 not in reg
    assert len(reg) == 0


def test_duplicate_admit_rejected():
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    with pytest.raises(ServiceError):
        reg.admit(1, "povray")


def test_unknown_profile_rejected():
    reg = ProcessRegistry(2)
    with pytest.raises(WorkloadError):
        reg.admit(1, "no-such-benchmark")


def test_unknown_pid_rejected():
    reg = ProcessRegistry(2)
    with pytest.raises(ServiceError):
        reg.retire(99)
    with pytest.raises(ServiceError):
        reg.observe(99)
    with pytest.raises(ServiceError):
        reg.handle(99)
    with pytest.raises(ServiceError):
        reg.phase_change(99, "mcf")


def test_provisional_core_is_least_populated():
    reg = ProcessRegistry(3)
    assert reg.admit(1, "mcf").core == 0
    assert reg.admit(2, "mcf").core == 1
    assert reg.admit(3, "mcf").core == 2
    assert reg.admit(4, "mcf").core == 0


def test_footprint_samples_are_replay_deterministic():
    def build():
        reg = ProcessRegistry(2)
        reg.admit(1, "mcf")
        reg.admit(2, "povray")
        for _ in range(5):
            reg.observe(1)
            reg.observe(2)
        return reg

    a, b = build(), build()
    assert a.handle(1).footprint == b.handle(1).footprint
    assert a.handle(2).footprint == b.handle(2).footprint


def test_samples_are_order_insensitive_per_process():
    # Interleaving other processes' samples must not shift pid 1's
    # estimate: samples index per-process, not through a shared stream.
    lone = ProcessRegistry(2)
    lone.admit(1, "mcf")
    lone.observe(1)
    crowded = ProcessRegistry(2)
    crowded.admit(1, "mcf")
    crowded.admit(2, "povray")
    crowded.observe(2)
    crowded.observe(1)
    crowded.observe(2)
    assert lone.handle(1).footprint == crowded.handle(1).footprint


def test_footprint_stays_near_hot_set():
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    hot = reg.handle(1).profile.hot_set_blocks
    for _ in range(20):
        footprint = reg.observe(1)
        assert 0.8 * hot <= footprint <= 1.2 * hot


def test_footprint_saturates_at_capacity():
    reg = ProcessRegistry(2, capacity_lines=100)
    reg.admit(1, "mcf")
    for _ in range(10):
        assert reg.observe(1) <= 100.0


def test_phase_change_restarts_the_estimate():
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    for _ in range(5):
        reg.observe(1)
    before = reg.handle(1).samples_seen
    handle = reg.phase_change(1, "povray")
    assert handle.profile.name == "povray"
    # The estimate restarts from a single fresh sample of the new
    # profile — no EWMA memory of the old one survives.
    assert handle.samples_seen == before + 1
    assert 0.8 * handle.profile.hot_set_blocks <= handle.footprint
    assert handle.footprint <= 1.2 * handle.profile.hot_set_blocks


def test_views_are_sorted_and_well_formed():
    reg = ProcessRegistry(2)
    for pid, name in [(3, "mcf"), (1, "povray"), (2, "astar")]:
        reg.admit(pid, name)
    views = reg.views()
    assert [v.tid for v in views] == [1, 2, 3]
    for view in views:
        assert view.valid
        assert view.occupancy > 0.0
        assert len(view.symbiosis) == 2
        assert all(s >= 0.0 for s in view.symbiosis)


def test_symbiosis_follows_the_xor_population_model():
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    reg.admit(2, "mcf")
    reg.apply_mapping(canonical_mapping([[1, 2], []]))
    shared = reg.handle(1).core
    assert reg.handle(2).core == shared
    empty = 1 - shared
    (view, _) = reg.views()
    # Against the empty core the XOR population is just |P|; sharing
    # with another copy of mcf overlaps heavily, shrinking the XOR
    # (lower symbiosis value = more footprint overlap, per the paper).
    assert view.symbiosis[empty] == pytest.approx(view.occupancy)
    assert view.symbiosis[shared] < view.symbiosis[empty]


def test_apply_mapping_moves_and_counts():
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    reg.admit(2, "povray")
    mapping = canonical_mapping([[1, 2], []])
    moved = reg.apply_mapping(mapping)
    assert moved == 1  # exactly one process had to change cores
    assert reg.handle(1).core == reg.handle(2).core
    assert reg.apply_mapping(mapping) == 0  # idempotent


def test_status_payload_is_json_native():
    import json

    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    payload = reg.status()
    assert payload["population"] == 1
    assert payload["capacity_lines"] == DEFAULT_CAPACITY_LINES
    assert payload["processes"]["1"]["profile"] == "mcf"
    json.dumps(payload)  # must not raise


def test_live_pids_sorted():
    reg = ProcessRegistry(2)
    for pid in (5, 1, 3):
        reg.admit(pid, "mcf")
    assert reg.live_pids() == [1, 3, 5]


@pytest.mark.parametrize(
    "state",
    [
        {"processes": [["1", "mcf"]]},
        {"processes": "1"},
        {"processes": {"1": {"profile": "mcf", "core": 0}}},
        {"processes": {"x": {"profile": "mcf", "core": 0, "footprint": 1.0,
                             "samples_seen": 1}}},
        {"processes": {"1": None}},
    ],
    ids=["list", "string", "missing-field", "bad-pid", "null-entry"],
)
def test_restore_rejects_a_malformed_table_and_keeps_the_registry(state):
    reg = ProcessRegistry(2)
    reg.admit(1, "mcf")
    before = reg.export_state()
    with pytest.raises(ServiceError, match="registry snapshot"):
        reg.restore(state)
    assert reg.export_state() == before


def test_restore_round_trips_export_state():
    reg = ProcessRegistry(2)
    for pid, name in [(2, "mcf"), (5, "povray")]:
        reg.admit(pid, name)
        reg.observe(pid)
    copy = ProcessRegistry(2)
    copy.restore(reg.export_state())
    assert copy.export_state() == reg.export_state()


def test_single_view_equals_its_views_entry():
    reg = ProcessRegistry(3, capacity_lines=20_000)
    for pid, name in [(4, "mcf"), (1, "povray"), (9, "astar"), (2, "milc")]:
        reg.admit(pid, name)
    reg.apply_mapping(canonical_mapping([[1, 9], [4], [2]]))
    for view in reg.views():
        single = reg.view(view.tid)
        assert repr(single) == repr(view)
        assert single.symbiosis.tobytes() == view.symbiosis.tobytes()
    with pytest.raises(ServiceError):
        reg.view(3)
