"""Interference-graph construction (paper Sections 3.3.2 and 3.3.3).

Nodes are tasks. The directed edge ``P → Q`` exists only when ``P`` and
``Q`` last ran on *different* cores and carries ``I_{P, core(Q)}`` — the
interference metric (reciprocal symbiosis) of ``P`` against the Core
Filter of the core where ``Q`` last ran. The paper assumes a process
interferes equally with every process of a given core, "since it is
difficult to know which process was executing in each core when the
interference data is taken"; processes sharing a core never execute
simultaneously, so no interference is attributed between them (their
mutual edge is zero). This matters: a same-core edge would be dominated
by the pair's own joint footprint in their common Core Filter and would
lock in whatever placement currently exists.

The directed graph is consolidated to an undirected one by summing the two
opposing edges:

* plain (Sec 3.3.2):    ``w(P,Q) = I_{P,core(Q)} + I_{Q,core(P)}``
* weighted (Sec 3.3.3): ``w(P,Q) = W_P·I_{P,core(Q)} + W_Q·I_{Q,core(P)}``

where ``W`` is the occupancy weight — damping the spuriously high
interference metric of near-empty RBVs.

A structural subtlety worth knowing: on a snapshot whose tasks split
evenly across the cores, every edge decomposes as ``f(P) + g(Q)`` (the
interference term of each endpoint depends only on the *other side's
core*), so all cross pairings have exactly equal intra-group weight — a
single balanced snapshot cannot prefer one regrouping over another. The
discriminating information comes from asymmetric placements (3+1 splits
and mid-migration states) that occur naturally while the monitor churns
the schedule in phase 1; the Section 4.1 majority vote aggregates those
informative snapshots. This is inherent to the paper's edge definition,
not an implementation artifact.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.alloc.base import require_valid_views
from repro.errors import AllocationError
from repro.sched.syscall import TaskView

__all__ = ["interference_matrix"]


def interference_matrix(
    tasks: Sequence[TaskView], weighted: bool
) -> Tuple[List[int], np.ndarray]:
    """Build the consolidated undirected interference matrix.

    Returns ``(tids, W)`` where ``W[i, j]`` is the undirected edge weight
    between ``tasks[i]`` and ``tasks[j]`` (zero diagonal).
    """
    require_valid_views(tasks)
    n = len(tasks)
    tids = [t.tid for t in tasks]
    if len(set(tids)) != n:
        raise AllocationError("duplicate task ids in allocation request")
    weights = np.zeros((n, n), dtype=np.float64)
    for i, p in enumerate(tasks):
        for j, q in enumerate(tasks):
            if i >= j:
                continue
            if p.last_core == q.last_core:
                continue  # same core: never concurrent, no edge (see above)
            # Directed metrics: P against Q's core and vice versa.
            i_pq = p.interference_with_core(q.last_core)
            i_qp = q.interference_with_core(p.last_core)
            if weighted:
                edge = p.occupancy * i_pq + q.occupancy * i_qp
            else:
                edge = i_pq + i_qp
            weights[i, j] = weights[j, i] = edge
    return tids, weights

