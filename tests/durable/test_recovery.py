"""Deterministic crash recovery: kill-at-every-index equivalence.

The contract pinned here is the tentpole's acceptance criterion: for a
500-event seeded trace, killing the daemon after *any* event index and
recovering from the durability directory must reproduce — byte for
byte, via :func:`~repro.durable.state.state_fingerprint` — the state an
uninterrupted run reaches at that index, with no event ever applied
twice. Events are driven through ``_handle`` directly (the exact code
path the consumer task and the recovery replay both use) so every
post-event state directory can be copied synchronously.
"""

import shutil

import pytest

from repro.alloc.weight_sort import WeightSortPolicy
from repro.durable.manager import DurabilityManager
from repro.durable.state import capture_state, restore_state, state_fingerprint
from repro.errors import ServiceError
from repro.service.daemon import SchedulerService, ServiceConfig
from repro.service.events import event_from_arrival
from repro.workloads.arrivals import poisson_trace

TRACE_EVENTS = 500
TRACE_SEED = 13
SNAPSHOT_INTERVAL = 64


def make_config(**overrides):
    defaults = dict(num_cores=4, drift_threshold=8)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def trace_events(count=TRACE_EVENTS, seed=TRACE_SEED):
    return [
        event_from_arrival(a) for a in poisson_trace(count, seed=seed)
    ]


def run_oracle(events, config):
    """Uninterrupted run; returns the service and per-index fingerprints."""
    service = SchedulerService(WeightSortPolicy(), config)
    fingerprints = []
    for event in events:
        service._handle(event)
        fingerprints.append(state_fingerprint(capture_state(service)))
    return service, fingerprints


def run_durable(events, config, state_dir, copies_dir):
    """Durable run that copies the state directory after every event."""
    durability = DurabilityManager(
        state_dir, snapshot_interval=SNAPSHOT_INTERVAL
    )
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for index, event in enumerate(events, start=1):
        service._handle(event)
        shutil.copytree(state_dir, copies_dir / f"at-{index}")
    return service


def test_kill_at_every_index_recovers_the_exact_state(tmp_path):
    events = trace_events()
    config = make_config()
    oracle, fingerprints = run_oracle(events, config)
    durable = run_durable(
        events, config, tmp_path / "live", tmp_path / "copies"
    )
    # The durable run itself never diverged from the oracle.
    assert state_fingerprint(capture_state(durable)) == fingerprints[-1]
    mismatches = []
    for index in range(1, len(events) + 1):
        recovered = SchedulerService.recover(
            WeightSortPolicy(),
            config,
            state_dir=tmp_path / "copies" / f"at-{index}",
            snapshot_interval=SNAPSHOT_INTERVAL,
        )
        if state_fingerprint(capture_state(recovered)) != fingerprints[
            index - 1
        ]:
            mismatches.append(index)
        # No event applied twice, none lost: the counter is exact.
        assert recovered.events_processed == index
    assert mismatches == []


def test_recovered_run_continues_to_the_oracle_end(tmp_path):
    events = trace_events(count=200, seed=7)
    config = make_config()
    oracle, fingerprints = run_oracle(events, config)
    run_durable(events, config, tmp_path / "live", tmp_path / "copies")
    for crash_index in (1, 63, 64, 65, 137, 199):
        recovered = SchedulerService.recover(
            WeightSortPolicy(),
            config,
            state_dir=tmp_path / "copies" / f"at-{crash_index}",
            snapshot_interval=SNAPSHOT_INTERVAL,
        )
        for event in events[crash_index:]:
            recovered._handle(event)
        assert (
            state_fingerprint(capture_state(recovered)) == fingerprints[-1]
        )
        # Full-remap counts track StablePolicy invocations one-to-one.
        assert recovered.mapper.full_remaps == oracle.mapper.full_remaps


def test_recovery_without_a_snapshot_replays_the_full_wal(tmp_path):
    events = trace_events(count=50, seed=3)
    config = make_config()
    _, fingerprints = run_oracle(events, config)
    durability = DurabilityManager(tmp_path / "wal-only", snapshot_interval=10_000)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for event in events:
        service._handle(event)
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=tmp_path / "wal-only"
    )
    assert not recovered.recovered_from_snapshot
    assert recovered.recovered_events == len(events)
    assert state_fingerprint(capture_state(recovered)) == fingerprints[-1]


def test_corrupt_snapshot_falls_back_to_wal_replay(tmp_path):
    events = trace_events(count=40, seed=5)
    config = make_config()
    _, fingerprints = run_oracle(events, config)
    state_dir = tmp_path / "dir"
    durability = DurabilityManager(state_dir, snapshot_interval=10_000)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for event in events:
        service._handle(event)
    # A garbage snapshot lands in the directory (torn write, bad disk).
    (state_dir / "snapshot.json").write_text("garbage", encoding="ascii")
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=state_dir
    )
    assert not recovered.recovered_from_snapshot
    assert state_fingerprint(capture_state(recovered)) == fingerprints[-1]
    assert (state_dir / "snapshot.json.corrupt").exists()


def test_torn_wal_tail_loses_only_the_unacknowledged_event(tmp_path):
    events = trace_events(count=30, seed=9)
    config = make_config()
    state_dir = tmp_path / "dir"
    durability = DurabilityManager(state_dir, snapshot_interval=10_000)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for event in events:
        service._handle(event)
    with open(state_dir / "events.wal", "a", encoding="ascii") as handle:
        handle.write('{"version": 1, "lsn": 31, "ev')  # crash mid-append
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=state_dir
    )
    assert recovered.events_processed == len(events)



def test_event_acknowledged_after_losing_the_whole_wal_is_recovered(tmp_path):
    events = trace_events(count=24, seed=6)
    config = make_config()
    _, fingerprints = run_oracle(events, config)
    state_dir = tmp_path / "dir"
    durability = DurabilityManager(state_dir, snapshot_interval=8)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for event in events[:16]:  # checkpoints at 8 and 16
        service._handle(event)
    durability.close()
    # Compaction left only the LSN-16 anchor; tear it, losing every
    # record the WAL held (the snapshot still covers all 16 events).
    wal_path = state_dir / "events.wal"
    wal_path.write_bytes(wal_path.read_bytes()[:10])
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=state_dir, snapshot_interval=8
    )
    assert recovered.events_processed == 16
    result = recovered._handle(events[16])  # acknowledged: logged first
    assert result["ok"]
    recovered.durability.close()
    again = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=state_dir, snapshot_interval=8
    )
    assert again.recovered_events == 1
    assert again.events_processed == 17
    assert state_fingerprint(capture_state(again)) == fingerprints[16]

def test_restore_refuses_a_mismatched_configuration(tmp_path):
    events = trace_events(count=SNAPSHOT_INTERVAL + 5, seed=2)
    state_dir = tmp_path / "dir"
    durability = DurabilityManager(
        state_dir, snapshot_interval=SNAPSHOT_INTERVAL
    )
    service = SchedulerService(
        WeightSortPolicy(), make_config(), durability=durability
    )
    for event in events:
        service._handle(event)
    with pytest.raises(ServiceError, match="num_cores"):
        SchedulerService.recover(
            WeightSortPolicy(),
            make_config(num_cores=8),
            state_dir=state_dir,
            snapshot_interval=SNAPSHOT_INTERVAL,
        )


def test_restore_refuses_an_unknown_schema():
    service = SchedulerService(WeightSortPolicy(), make_config())
    state = capture_state(service)
    state["schema"] = 99
    with pytest.raises(ServiceError, match="schema"):
        restore_state(service, state)


def test_checkpoint_bounds_the_wal_tail(tmp_path):
    events = trace_events(count=20, seed=4)
    config = make_config()
    durability = DurabilityManager(tmp_path / "dir", snapshot_interval=10_000)
    service = SchedulerService(WeightSortPolicy(), config, durability=durability)
    for event in events:
        service._handle(event)
    assert service.checkpoint() is True
    recovered = SchedulerService.recover(
        WeightSortPolicy(), config, state_dir=tmp_path / "dir"
    )
    assert recovered.recovered_from_snapshot
    assert recovered.recovered_events == 0  # snapshot covers everything
    assert recovered.events_processed == len(events)


def test_checkpoint_without_durability_is_a_noop():
    service = SchedulerService(WeightSortPolicy(), make_config())
    assert service.checkpoint() is False
