"""Cache geometry and configuration, with the paper's machine presets.

The paper's two evaluation platforms:

* **Intel Core 2 Duo** (Section 2.3.2, 4.2): 2.34/2.6 GHz, two cores
  sharing a 4 MB 16-way L2 with 64-byte lines — the shared-cache target.
* **Intel P4 Xeon SMP** (Section 2.3.1): two processors, each with a
  private 2 MB 8-way L2 — the control platform where pairs only interact
  through context-switch warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError
from repro.utils.validation import require_power_of_two, require_positive

__all__ = [
    "CacheGeometry",
    "CacheConfig",
    "core2duo_l2",
    "p4xeon_l2",
    "tiny_cache",
]

@dataclass(frozen=True)
class CacheGeometry:
    """Physical shape of one cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Cache-line size (power of two).
    ways:
        Associativity. ``size_bytes / (line_bytes * ways)`` must be a
        power-of-two set count.
    """

    size_bytes: int
    line_bytes: int = 64
    ways: int = 16

    def __post_init__(self) -> None:
        require_positive(self.size_bytes, "size_bytes")
        require_power_of_two(self.line_bytes, "line_bytes")
        require_positive(self.ways, "ways")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise GeometryError(
                f"size {self.size_bytes} not divisible by ways*line "
                f"({self.ways} * {self.line_bytes})"
            )
        require_power_of_two(self.num_sets, "num_sets (derived)")

    @property
    def num_lines(self) -> int:
        """Total cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.ways

    @property
    def line_bits(self) -> int:
        """log2(line_bytes) — the block-offset width."""
        return self.line_bytes.bit_length() - 1

    def block_of(self, address: int) -> int:
        """Block (line) address of a byte address."""
        return address >> self.line_bits

    def set_of_block(self, block: int) -> int:
        """Set index of a block address."""
        return block & (self.num_sets - 1)

    def __str__(self) -> str:
        kb = self.size_bytes // 1024
        return f"{kb}KB/{self.ways}-way/{self.line_bytes}B"


@dataclass(frozen=True)
class CacheConfig:
    """A named cache geometry; every simulated cache replaces LRU."""

    name: str
    geometry: CacheGeometry


def core2duo_l2() -> CacheConfig:
    """The paper's target: 4 MB, 16-way, 64 B lines (4096 sets)."""
    return CacheConfig(
        name="core2duo-l2",
        geometry=CacheGeometry(size_bytes=4 * 1024 * 1024, line_bytes=64, ways=16),
    )


def p4xeon_l2() -> CacheConfig:
    """The paper's control platform: private 2 MB, 8-way, 64 B lines."""
    return CacheConfig(
        name="p4xeon-l2",
        geometry=CacheGeometry(size_bytes=2 * 1024 * 1024, line_bytes=64, ways=8),
    )


def tiny_cache(sets: int = 8, ways: int = 2, line_bytes: int = 64) -> CacheConfig:
    """A small cache for unit tests and the Figure 1 concept demo."""
    return CacheConfig(
        name="tiny",
        geometry=CacheGeometry(
            size_bytes=sets * ways * line_bytes, line_bytes=line_bytes, ways=ways
        ),
    )
