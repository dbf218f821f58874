"""TLB and page-fault models for the Figure 2 counter comparison.

The paper's motivation (Section 2.2, Figure 2) is that event-based
performance counters — L2 miss counts, TLB misses, page faults — do *not*
track the cache working set over time. To regenerate that figure we need
those counters, so this module models:

* :class:`TLB` — a small LRU translation buffer over virtual page numbers;
* :class:`PageFaultTracker` — first-touch (minor) page faults.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Set

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["TLB", "PageFaultTracker"]


class TLB:
    """Fully-associative LRU TLB.

    Parameters
    ----------
    entries:
        Number of translations held (e.g. 64 for a classic D-TLB).
    page_bytes:
        Page size used to derive page numbers from byte addresses.
    """

    def __init__(self, entries: int = 64, page_bytes: int = 4096):
        self.entries = require_positive(entries, "entries")
        self.page_bytes = require_positive(page_bytes, "page_bytes")
        self._page_shift = (page_bytes - 1).bit_length()
        self._table: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def page_of(self, address: int) -> int:
        """Virtual page number of a byte address."""
        return address >> self._page_shift

    def access_pages(self, pages: np.ndarray) -> int:
        """Access a sequence of page numbers; returns the batch miss count."""
        table = self._table
        entries = self.entries
        misses = 0
        for page in pages.tolist():
            if page in table:
                table.move_to_end(page)
                self.hits += 1
            else:
                misses += 1
                self.misses += 1
                table[page] = None
                if len(table) > entries:
                    table.popitem(last=False)
        return misses

    def access_addresses(self, addresses: np.ndarray) -> int:
        """Access byte addresses (pages derived internally)."""
        return self.access_pages(
            np.asarray(addresses, dtype=np.int64) >> self._page_shift
        )

    def miss_rate(self) -> float:
        """Overall TLB miss rate."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Flush all translations and counters."""
        self._table.clear()
        self.hits = 0
        self.misses = 0


class PageFaultTracker:
    """Counts first-touch (minor) page faults: every page faults once.

    Touched pages stay resident; nothing is ever evicted.
    """

    def __init__(self, page_bytes: int = 4096):
        self.page_bytes = require_positive(page_bytes, "page_bytes")
        self._page_shift = (page_bytes - 1).bit_length()
        self._resident: Set[int] = set()
        self.faults = 0

    def touch_addresses(self, addresses: np.ndarray) -> int:
        """Touch byte addresses; returns the batch fault count."""
        return self.touch_pages(
            np.asarray(addresses, dtype=np.int64) >> self._page_shift
        )

    def touch_pages(self, pages: np.ndarray) -> int:
        """Touch page numbers; returns the batch fault count."""
        before = len(self._resident)
        self._resident.update(pages.tolist())
        faults = len(self._resident) - before
        self.faults += faults
        return faults

    @property
    def resident_pages(self) -> int:
        """Distinct pages touched since the last reset."""
        return len(self._resident)

    def reset(self) -> None:
        """Forget all pages and zero the fault counter."""
        self._resident.clear()
        self.faults = 0
