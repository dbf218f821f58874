"""Synthetic workload substrate: trace generators and the SPEC/PARSEC-like
benchmark profile pools (see DESIGN.md for the substitution rationale)."""

from repro.workloads.aim9 import aim9_phases, make_aim9_generator
from repro.workloads.arrivals import (
    EVENT_KINDS,
    ArrivalEvent,
    ArrivalTrace,
    bursty_trace,
    poisson_trace,
)
from repro.workloads.base import BLOCK_BYTES, TraceGenerator, WorkloadProfile
from repro.workloads.parsec import (
    PARSEC_PROFILES,
    MultithreadedProfile,
    parsec_pool,
    parsec_profile,
    parsec_profile_names,
)
from repro.workloads.patterns import (
    HotColdGenerator,
    MixtureGenerator,
    PhasedGenerator,
    PointerChaseGenerator,
    RandomRegionGenerator,
    StreamGenerator,
    StridedGenerator,
    generator_for_profile,
)
from repro.workloads.spec import (
    SPEC_PROFILES,
    spec_pool,
    spec_profile,
    spec_profile_names,
)

__all__ = [
    "EVENT_KINDS",
    "ArrivalEvent",
    "ArrivalTrace",
    "bursty_trace",
    "poisson_trace",
    "aim9_phases",
    "make_aim9_generator",
    "BLOCK_BYTES",
    "TraceGenerator",
    "WorkloadProfile",
    "PARSEC_PROFILES",
    "MultithreadedProfile",
    "parsec_pool",
    "parsec_profile",
    "parsec_profile_names",
    "HotColdGenerator",
    "MixtureGenerator",
    "PhasedGenerator",
    "PointerChaseGenerator",
    "RandomRegionGenerator",
    "StreamGenerator",
    "StridedGenerator",
    "generator_for_profile",
    "SPEC_PROFILES",
    "spec_pool",
    "spec_profile",
    "spec_profile_names",
]
