"""Deterministic random-number-stream management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` produced here. Named streams are keyed by a
stable digest of their root seed and name (:func:`derive_rng`), so two
components seeded from the same root never share a stream and experiments
replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = ["make_rng", "stable_seed", "derive_rng"]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    *seed* may be an int, an existing ``SeedSequence``, an existing
    ``Generator`` (returned unchanged), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def stable_seed(*parts: Union[str, int]) -> int:
    """Derive a stable 63-bit seed from string/int *parts*.

    Used to give named entities (e.g. the ``mcf`` workload profile) a
    reproducible stream that does not depend on construction order.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)


def derive_rng(root_seed: SeedLike, *parts: Union[str, int]) -> np.random.Generator:
    """Make a generator whose stream is keyed by *root_seed* plus *parts*."""
    if isinstance(root_seed, (np.random.Generator, np.random.SeedSequence)):
        raise TypeError("derive_rng needs a hashable root seed (int or None)")
    base = 0 if root_seed is None else int(root_seed)
    return make_rng(stable_seed(base, *parts))
