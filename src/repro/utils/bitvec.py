"""Bit vectors used for Bloom-filter signatures.

A :class:`BitVector` stores ``n`` bits as a ``numpy`` bool array, one
byte per bit, so a batch of indices is set or cleared with one fancy
assignment and popcount is one ``count_nonzero``. All bulk operations
(set/clear many indices, boolean combinations, popcount) are vectorised;
single-bit operations are also provided for the exact-semantics
signature mode. A vector may be a view of one row of a larger bool
matrix (the signature unit keeps every core's filter in one), in which
case writes through either go to the same memory.

The signature metrics of the paper (Section 3.1) are boolean algebra over
these vectors:

* ``RBV  = CF & ~LF``           (newly-set bits since the last snapshot)
* ``occupancy = popcount(RBV)``
* ``symbiosis = popcount(RBV ^ CF_other)``
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["BitVector"]


class BitVector:
    """A fixed-size bit vector, one bool per bit.

    Parameters
    ----------
    size:
        Number of bits.
    """

    __slots__ = ("size", "_bits")

    def __init__(self, size: int):
        self.size = require_positive(size, "size")
        self._bits = np.zeros(self.size, dtype=bool)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "BitVector":
        """Build a vector with exactly the given bit *indices* set."""
        vec = cls(size)
        vec.set_many(np.asarray(list(indices), dtype=np.int64))
        return vec

    @classmethod
    def _backed_by(cls, bits: np.ndarray) -> "BitVector":
        """A vector over the 1-D bool array *bits*, shared, not copied."""
        vec = cls.__new__(cls)
        vec.size = len(bits)
        vec._bits = bits
        return vec

    def copy(self) -> "BitVector":
        """Return an independent copy of this vector."""
        return BitVector._backed_by(self._bits.copy())

    # ------------------------------------------------------------------
    # single-bit operations
    # ------------------------------------------------------------------
    def set(self, index: int) -> None:
        """Set bit *index* to 1."""
        self._check_index(index)
        self._bits[index] = True

    def clear(self, index: int) -> None:
        """Clear bit *index* to 0."""
        self._check_index(index)
        self._bits[index] = False

    def test(self, index: int) -> bool:
        """Return True iff bit *index* is set."""
        self._check_index(index)
        return bool(self._bits[index])

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def set_many(self, indices: np.ndarray) -> None:
        """Set every bit listed in *indices* (duplicates allowed)."""
        if len(indices) == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        self._check_indices(idx)
        self._bits[idx] = True

    def clear_many(self, indices: np.ndarray) -> None:
        """Clear every bit listed in *indices* (duplicates allowed)."""
        if len(indices) == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        self._check_indices(idx)
        self._bits[idx] = False

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array: for each index, whether the bit is set."""
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return np.zeros(0, dtype=bool)
        self._check_indices(idx)
        return self._bits[idx]

    def zero(self) -> None:
        """Clear the entire vector."""
        self._bits.fill(False)

    def fill(self) -> None:
        """Set the entire vector to all ones."""
        self._bits.fill(True)

    def load_from(self, other: "BitVector") -> None:
        """Overwrite this vector's contents with *other*'s (snapshot copy)."""
        self._check_same_size(other)
        np.copyto(self._bits, other._bits)

    # ------------------------------------------------------------------
    # boolean algebra (new vectors)
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._backed_by(self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._backed_by(self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._backed_by(self._bits ^ other._bits)

    def __invert__(self) -> "BitVector":
        return BitVector._backed_by(~self._bits)

    def andnot(self, other: "BitVector") -> "BitVector":
        """Return ``self & ~other`` — the paper's RBV when self=CF, other=LF."""
        self._check_same_size(other)
        return BitVector._backed_by(self._bits & ~other._bits)

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def popcount(self) -> int:
        """Number of set bits (the paper's 'occupancy weight' when on an RBV)."""
        return int(np.count_nonzero(self._bits))

    def and_popcount(self, other: "BitVector") -> int:
        """popcount(self & other)."""
        self._check_same_size(other)
        return int(np.count_nonzero(self._bits & other._bits))

    def xor_popcount(self, other: "BitVector") -> int:
        """popcount(self ^ other) — the paper's symbiosis metric."""
        self._check_same_size(other)
        return int(np.count_nonzero(self._bits ^ other._bits))

    def to_indices(self) -> np.ndarray:
        """Return the sorted array of set-bit indices."""
        return self._bits.nonzero()[0].astype(np.int64)

    def to_bool_array(self) -> np.ndarray:
        """Return the vector as a dense boolean numpy array of length size."""
        return self._bits.copy()

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.size == other.size and bool(
            np.array_equal(self._bits, other._bits)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, but tests want sets
        raise TypeError("BitVector is mutable and unhashable")

    def __iter__(self) -> Iterator[bool]:
        return iter(self._bits.tolist())

    def __repr__(self) -> str:
        return f"BitVector(size={self.size}, popcount={self.popcount()})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} out of range [0, {self.size})")

    def _check_indices(self, indices: np.ndarray) -> None:
        if len(indices) and (indices.min() < 0 or indices.max() >= self.size):
            raise IndexError(
                f"bit indices out of range [0, {self.size}): "
                f"min={indices.min()}, max={indices.max()}"
            )

    def _check_same_size(self, other: "BitVector") -> None:
        if self.size != other.size:
            raise ValueError(
                f"bit vector size mismatch: {self.size} vs {other.size}"
            )
