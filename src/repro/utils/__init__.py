"""Shared low-level utilities: bit vectors, RNG streams, table rendering."""

from repro.utils.bitvec import BitVector
from repro.utils.rng import make_rng, stable_seed
from repro.utils.tables import format_table, format_bar_chart
from repro.utils.validation import (
    require,
    require_power_of_two,
    require_positive,
    require_in_range,
)

__all__ = [
    "BitVector",
    "make_rng",
    "stable_seed",
    "format_table",
    "format_bar_chart",
    "require",
    "require_power_of_two",
    "require_positive",
    "require_in_range",
]
