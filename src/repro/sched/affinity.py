"""Affinity masks and process-to-core mappings.

The paper's allocation algorithms output a *mapping*: which tasks share
which core. The user-level monitor enforces it by "setting affinity bits"
(Section 3.2) — it never preempts the in-core scheduler, it only constrains
where each task may run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Sequence, Tuple

from repro.errors import AllocationError
from repro.utils.validation import require_positive

__all__ = ["Mapping", "balanced_mappings", "canonical_mapping"]


@dataclass(frozen=True)
class Mapping:
    """An assignment of task identifiers to cores.

    ``groups[c]`` is the frozenset of task ids pinned to core ``c``.
    """

    groups: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for group in self.groups:
            overlap = seen & group
            if overlap:
                raise AllocationError(f"tasks {sorted(overlap)} mapped twice")
            seen |= group

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]]) -> "Mapping":
        return cls(tuple(map(frozenset, groups)))

    @property
    def num_cores(self) -> int:
        return len(self.groups)

    @property
    def task_ids(self) -> FrozenSet[int]:
        out: set = set()
        for g in self.groups:
            out |= g
        return frozenset(out)

    def core_of(self, task_id: int) -> int:
        """Core the task is pinned to."""
        for core, group in enumerate(self.groups):
            if task_id in group:
                return core
        raise AllocationError(f"task {task_id} not in mapping")

    def canonical(self) -> "Mapping":
        """Core-permutation-invariant form (groups sorted by members).

        Two mappings that differ only in core numbering describe the same
        schedule; canonicalisation makes majority voting meaningful. A
        mapping already in canonical order is its own canonical form.
        """
        ordered = tuple(sorted(self.groups, key=sorted))
        if ordered == self.groups:
            return self
        # Reordering disjoint groups keeps them disjoint: this mapping
        # was validated on construction, so its permutation is not.
        canonical = object.__new__(Mapping)
        object.__setattr__(canonical, "groups", ordered)
        return canonical

    def __str__(self) -> str:
        # Formatted once, then kept beside the (frozen) fields: it takes
        # no part in ==, hash or repr.
        text = self.__dict__.get("_text")
        if text is None:
            text = " | ".join(
                ["{%s}" % ",".join(map(str, sorted(g))) for g in self.groups]
            )
            self.__dict__["_text"] = text
        return text


def canonical_mapping(groups: Sequence[Sequence[int]]) -> Mapping:
    """Build a canonical mapping from raw groups (validated once)."""
    return Mapping.from_groups(groups).canonical()


def balanced_mappings(task_ids: Sequence[int], num_cores: int) -> List[Mapping]:
    """Every balanced assignment of tasks to cores, canonicalised.

    For the paper's standard shape — 4 tasks on a dual-core — this yields
    the three mappings of Table 1 (AB|CD, AC|BD, AD|BC). Group size is
    ``ceil(P / N)``; remainders make the last groups smaller.
    """
    require_positive(num_cores, "num_cores")
    ids = sorted(task_ids)
    if len(set(ids)) != len(ids):
        raise AllocationError("duplicate task ids")
    if num_cores == 1:
        return [canonical_mapping([ids])]
    if not ids:
        return [canonical_mapping([[] for _ in range(num_cores)])]
    # Near-balanced group sizes: ceil(P/N) for the first P mod N groups.
    base, extra = divmod(len(ids), num_cores)
    sizes = [base + 1 if c < extra else base for c in range(num_cores)]

    seen = set()
    results: List[Mapping] = []

    def recurse(remaining: Tuple[int, ...], groups: List[List[int]]) -> None:
        if not remaining:
            mapping = canonical_mapping(groups + [[]] * (num_cores - len(groups)))
            if mapping not in seen:
                seen.add(mapping)
                results.append(mapping)
            return
        this_size = sizes[len(groups)]
        if this_size == 0:
            recurse(remaining, groups + [[]])
            return
        for members in combinations(remaining, this_size):
            leftover = tuple(t for t in remaining if t not in members)
            recurse(leftover, groups + [list(members)])

    recurse(tuple(ids), [])
    return results
