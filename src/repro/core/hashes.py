"""Hash functions for Bloom-filter signatures (paper Section 5.3).

The paper evaluates four indexing schemes for mapping a cache-block address
to a Bloom-filter entry:

* **XOR** — the block address is divided into index-wide chunks which are
  bitwise-XORed together ("XOR folding").
* **XOR Inverse Reverse** — the XOR-fold index, bitwise inverted and then
  bit-reversed.
* **Modulo** — block address modulo the filter size (supports non-power-of-
  two filter sizes).
* **Presence bits** — not a hash at all: a one-to-one mapping from the cache
  line *slot* (set, way) to a bit. Implemented by
  :class:`repro.core.signature.SignatureUnit` in ``indexing='presence'``
  mode; this module only provides the registry entry so configurations can
  name it uniformly.

All hash objects are vectorised: :meth:`HashFunction.hash_many` maps a numpy
array of block addresses to filter indices in one shot.

Multiple hash functions (``k > 1``) are derived from a base hash by salting
the address with an odd multiplier per hash index; the paper uses ``k = 1``
(Section 3.1) but Section 5.3 argues k>1 saturates small filters, which the
``bench_ablation_hash_count`` harness reproduces.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive, require_power_of_two

__all__ = [
    "HashFunction",
    "XorFoldHash",
    "XorInverseReverseHash",
    "ModuloHash",
    "make_hash",
    "make_hash_family",
    "HASH_KINDS",
]

# Odd 64-bit salts used to derive independent hash functions from one base
# scheme (Fibonacci-style multipliers).
_SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA77C2B2AE63,
    0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53,
    0x2545F4914F6CDD1D,
)

_U64_MASK = 0xFFFFFFFFFFFFFFFF


class HashFunction:
    """Maps block addresses to filter indices in ``[0, num_entries)``.

    Subclasses implement :meth:`hash_many`; :meth:`hash_one` is derived.

    Parameters
    ----------
    num_entries:
        Size of the target Bloom-filter bit vector / counter array.
    salt_index:
        Selects one of the derived independent functions (for ``k > 1``).
    """

    #: registry name, overridden by subclasses
    kind = "abstract"

    def __init__(self, num_entries: int, salt_index: int = 0):
        self.num_entries = require_positive(num_entries, "num_entries")
        if not 0 <= salt_index < len(_SALTS):
            raise ConfigurationError(
                f"salt_index must be in [0, {len(_SALTS)}), got {salt_index}"
            )
        self.salt_index = salt_index
        self._salt = np.uint64(_SALTS[salt_index]) if salt_index else None

    def hash_many(self, blocks: np.ndarray) -> np.ndarray:
        """Map an int64 array of block addresses to int64 filter indices."""
        raise NotImplementedError

    def hash_one(self, block: int) -> int:
        """Map a single block address to a filter index."""
        return int(self.hash_many(np.asarray([block], dtype=np.int64))[0])

    def _mix(self, blocks: np.ndarray) -> np.ndarray:
        """Apply the per-function salt (identity for salt_index == 0)."""
        u = blocks.astype(np.uint64)
        if self._salt is not None:
            u = (u * self._salt) & np.uint64(_U64_MASK)
            u ^= u >> np.uint64(31)
        return u

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_entries={self.num_entries}, "
            f"salt_index={self.salt_index})"
        )


class XorFoldHash(HashFunction):
    """XOR-fold the block address into ``log2(num_entries)`` bits."""

    kind = "xor"

    def __init__(self, num_entries: int, salt_index: int = 0, fold_bits: int = 48):
        super().__init__(num_entries, salt_index)
        self.index_bits = int(require_power_of_two(num_entries, "num_entries")).bit_length() - 1
        if self.index_bits == 0:
            raise ConfigurationError("XOR folding needs num_entries >= 2")
        self.fold_bits = require_positive(fold_bits, "fold_bits")
        self._mask = np.uint64(num_entries - 1)
        step = self.index_bits
        self._shifts = tuple(
            np.uint64(s) for s in range(step, self.fold_bits, step)
        )

    def hash_many(self, blocks: np.ndarray) -> np.ndarray:
        u = self._mix(np.asarray(blocks, dtype=np.int64))
        # Masking distributes over XOR, so one mask after XOR-ing every
        # shifted word folds to the same index as masking each chunk.
        acc = u.copy()
        for shift in self._shifts:
            acc ^= u >> shift
        acc &= self._mask
        return acc.view(np.int64)


class XorInverseReverseHash(XorFoldHash):
    """XOR-fold, then bitwise-invert and bit-reverse the index."""

    kind = "xor_inverse_reverse"

    def hash_many(self, blocks: np.ndarray) -> np.ndarray:
        folded = super().hash_many(blocks).astype(np.uint64)
        inverted = np.bitwise_not(folded) & np.uint64(self.num_entries - 1)
        return _reverse_bits(inverted, self.index_bits).astype(np.int64)


class ModuloHash(HashFunction):
    """Block address modulo the filter size."""

    kind = "modulo"

    def hash_many(self, blocks: np.ndarray) -> np.ndarray:
        u = self._mix(np.asarray(blocks, dtype=np.int64))
        return (u % np.uint64(self.num_entries)).astype(np.int64)


def _reverse_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Reverse the low *width* bits of each uint64 element."""
    out = np.zeros_like(values)
    v = values.copy()
    for _ in range(width):
        out = (out << np.uint64(1)) | (v & np.uint64(1))
        v >>= np.uint64(1)
    return out


_REGISTRY: Dict[str, Callable[..., HashFunction]] = {
    XorFoldHash.kind: XorFoldHash,
    XorInverseReverseHash.kind: XorInverseReverseHash,
    ModuloHash.kind: ModuloHash,
}

#: Names accepted by :func:`make_hash` plus the presence-bit pseudo-schemes:
#: ``presence`` clears bits when the line leaves the cache (exact per-core
#: residency); ``presence_sticky`` never clears (the paper's evaluated
#: variant, which saturates for heavy cache users — Section 5.3).
HASH_KINDS = tuple(_REGISTRY) + ("presence", "presence_sticky")


def make_hash(kind: str, num_entries: int, salt_index: int = 0) -> HashFunction:
    """Construct a hash function by registry name.

    ``'presence'`` is rejected here: presence-bit indexing bypasses hashing
    entirely and is selected on the signature unit instead.
    """
    if kind in ("presence", "presence_sticky"):
        raise ConfigurationError(
            "presence-bit indexing is not a hash function; construct the "
            "SignatureUnit with hash_kind='presence' (or 'presence_sticky') "
            "instead"
        )
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown hash kind {kind!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    return factory(num_entries, salt_index=salt_index)


def make_hash_family(kind: str, num_entries: int, count: int) -> List[HashFunction]:
    """Construct *count* independent hash functions of the same *kind*."""
    require_positive(count, "count")
    if count > len(_SALTS):
        raise ConfigurationError(
            f"at most {len(_SALTS)} independent hash functions are supported"
        )
    return [make_hash(kind, num_entries, salt_index=i) for i in range(count)]
