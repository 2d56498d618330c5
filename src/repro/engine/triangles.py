"""Exact triangle and triplet counting on whole graphs.

Used by the from-scratch baseline (once per k!) and by tests as the oracle
for Algorithm 3's incremental counters.  The triangle counter is the
*forward* algorithm of Latapy [35]: orient every edge from lower to higher
degeneracy rank and intersect the out-neighbourhoods of the two endpoints.
Its ``O(m^1.5)`` bound is the optimality yardstick the paper cites.

The counting itself runs on the selected kernel backend (see
:mod:`repro.kernels`): the ``python`` backend intersects one out-list pair
at a time, the default ``numpy`` backend batches every intersection into
chunked hashed probes against one key table of ``owner * n + rank`` keys,
each arc ``v -> u`` probing only the part of ``v``'s out-list after ``u``
(or ``u``'s out-list, if that is shorter).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..kernels import KernelBackend, get_backend

__all__ = [
    "count_triangles",
    "count_triplets",
    "count_triangles_and_triplets",
    "triangles_per_vertex",
    "triangles_by_min_rank_vertex",
    "triplet_group_deltas",
]


def count_triangles(graph: Graph, *, backend: str | KernelBackend | None = None) -> int:
    """Number of triangles in ``graph`` (each counted once)."""
    return get_backend(backend).count_triangles(graph)


def count_triplets(graph: Graph) -> int:
    """Number of triplets: ``sum_v C(d(v), 2)`` (paths of length two)."""
    d = graph.degrees()
    return int((d * (d - 1) // 2).sum())


def count_triangles_and_triplets(
    graph: Graph, *, backend: str | KernelBackend | None = None
) -> tuple[int, int]:
    """Both counts in one call (the pair every triangle metric needs)."""
    return count_triangles(graph, backend=backend), count_triplets(graph)


def triangles_per_vertex(
    graph: Graph, *, backend: str | KernelBackend | None = None
) -> np.ndarray:
    """Number of triangles through each vertex (length ``n`` array).

    Needed by per-vertex metrics such as local clustering; also a stronger
    test oracle than the global count.
    """
    return get_backend(backend).triangles_per_vertex(graph)


# ----------------------------------------------------------------------
# Incremental counters shared by Algorithm 3 and Algorithm 5
# ----------------------------------------------------------------------
#
# Both algorithms charge every triangle to its minimum-rank corner and every
# triplet to its centre, then aggregate the charges by shell (best k-core
# set) or by forest node (best single k-core).  The per-vertex / per-group
# charging kernels live in the backend registry (the ``python`` backend is
# the scalar per-neighbour loop, the ``numpy`` backend batched, tail-bounded
# key-table probes over all higher-rank arc pairs); the callers only differ
# in how they group vertices.

def triangles_by_min_rank_vertex(
    ordered, *, backend: str | KernelBackend | None = None
) -> np.ndarray:
    """Per-vertex triangle charges under the rank order (Algorithm 3, lines 7-12).

    ``result[v]`` is the number of triangles whose minimum-rank corner is
    ``v``.  Because the three corners of a triangle in a k-core (but not the
    (k+1)-core) have their minimum-rank corner in the k-shell, summing the
    charges over any shell — or over a forest node's vertices — yields the
    incremental triangle count of that shell/node.

    O(m^1.5) total: every higher-rank neighbourhood has size O(sqrt(m))
    under a degeneracy-compatible order (proof in paper Section III-D).
    """
    return get_backend(backend).triangle_charges(ordered)


def triplet_group_deltas(
    ordered, groups: list[np.ndarray], *, backend: str | KernelBackend | None = None
) -> np.ndarray:
    """Incremental triplet counts per vertex group (Algorithm 3, lines 13-22).

    ``groups`` must be ordered by non-increasing coreness, and groups of
    equal coreness must be vertex-disjoint, mutually non-adjacent and
    never share a neighbour of higher coreness (true for shells and for
    forest nodes alike: such a neighbour would join them into one
    component).  The numpy kernel's one-pass run-length form relies on the
    last condition; the python and native loops are its oracle.
    ``result[i]`` is the number of triplets that appear when group ``i``'s
    vertices join the already-seen region:

    * centres inside the group: any two neighbours within the group's own
      k-core set form a new triplet;
    * centres already seen (the group's higher-coreness neighbours): counted
      through the frontier arrays ``f>=`` / ``f>``.
    """
    return get_backend(backend).triplet_group_deltas(ordered, groups)
