"""The paper's contribution: Bloom-filter memory-footprint signatures.

Public surface:

* :class:`SignatureUnit` / :class:`SignatureConfig` — the split counting
  Bloom filter with per-core Core/Last Filters (Section 3.1), the only
  CBF the simulator runs; with one core it is the textbook CBF of
  Section 2.4.
* :class:`SignatureSample` / :class:`SignatureContext` — the per-process
  ``(2+N)``-entry OS record (Section 3.2).
* metric helpers (RBV / occupancy / symbiosis / interference) and the
  Section 5.4 overhead models.
"""

from repro.core.context import SignatureContext, SignatureSample
from repro.core.hashes import (
    HASH_KINDS,
    HashFunction,
    ModuloHash,
    XorFoldHash,
    XorInverseReverseHash,
    make_hash,
    make_hash_family,
)
from repro.core.metrics import (
    interference_from_symbiosis,
    occupancy_weight,
    running_bit_vector,
    symbiosis,
    symbiosis_vector,
    weighted_edge_weight,
)
from repro.core.overhead import (
    SoftwareOverhead,
    bits_accurate_overhead,
    paper_hardware_overhead,
    software_overhead,
)
from repro.core.sampling import SetSampler
from repro.core.signature import (
    HealthReport,
    SignatureConfig,
    SignatureHealth,
    SignatureStats,
    SignatureUnit,
    assess_signature,
)

__all__ = [
    "SignatureContext",
    "SignatureSample",
    "HASH_KINDS",
    "HashFunction",
    "ModuloHash",
    "XorFoldHash",
    "XorInverseReverseHash",
    "make_hash",
    "make_hash_family",
    "interference_from_symbiosis",
    "occupancy_weight",
    "running_bit_vector",
    "symbiosis",
    "symbiosis_vector",
    "weighted_edge_weight",
    "SoftwareOverhead",
    "bits_accurate_overhead",
    "paper_hardware_overhead",
    "software_overhead",
    "SetSampler",
    "HealthReport",
    "SignatureConfig",
    "SignatureHealth",
    "SignatureStats",
    "SignatureUnit",
    "assess_signature",
]
