"""Content-addressed key stability: same spec, same key — anywhere.

The whole caching/dedup story rests on ``spec_key`` being a pure
function of the spec's content: independent of dict insertion order,
process boundaries and hash randomisation, and undefined for values
with no canonical JSON form.
"""

import subprocess
import sys

import pytest

from repro.errors import JobError
from repro.jobs import canonical_json, make_run_spec, spec_key
from repro.jobs.spec import MonitorSpec, WorkloadSpec
from repro.perf.machine import core2duo


def small_spec(seed=0):
    """A representative phase-1 spec for key tests."""
    return make_run_spec(
        core2duo(),
        WorkloadSpec(
            kind="spec", names=("mcf", "povray"), instructions=100_000, seed=seed
        ),
        monitor=MonitorSpec.make("weight_sort", {}),
    )


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_canonical_json_rejects_nan_and_objects():
    with pytest.raises(JobError):
        canonical_json({"x": float("nan")})
    with pytest.raises(JobError):
        canonical_json({"x": object()})


def test_spec_key_is_stable_and_content_sensitive():
    spec = small_spec()
    assert spec_key(spec) == spec_key(spec.to_dict())
    # Round-tripping through the dict form preserves the key.
    from repro.jobs import RunSpec

    assert spec_key(RunSpec.from_dict(spec.to_dict())) == spec_key(spec)
    # Any content change changes the key.
    assert spec_key(small_spec(seed=1)) != spec_key(spec)


def test_spec_key_stable_across_processes():
    """A fresh interpreter (fresh hash seed) computes the same key."""
    spec = small_spec()
    program = (
        "import json,sys\n"
        "from repro.jobs import RunSpec, spec_key\n"
        "spec = RunSpec.from_dict(json.loads(sys.stdin.read()))\n"
        "print(spec_key(spec))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", program],
        input=canonical_json(spec.to_dict()),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == spec_key(spec)


def test_monitor_kwargs_order_does_not_change_key():
    a = MonitorSpec.make("two_phase", {"method": "weighted", "seed": 3})
    b = MonitorSpec.make("two_phase", {"seed": 3, "method": "weighted"})
    assert a == b
    machine = core2duo()
    workload = WorkloadSpec(kind="spec", names=("mcf",), instructions=50_000)
    assert spec_key(make_run_spec(machine, workload, monitor=a)) == spec_key(
        make_run_spec(machine, workload, monitor=b)
    )
